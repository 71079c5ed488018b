package core

import (
	"fmt"
	"math"

	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/task"
)

// pend is a spawned task waiting, executing, or awaiting verification.
type pend struct {
	Flight
	closed bool // end PC known (or declared endless during drain)

	forkAt   float64 // master clock at spawn
	closedAt float64 // master clock when the end-defining fork was taken
}

// Machine is one MSSP machine instance, single-use: construct, Run, inspect.
type Machine struct {
	r   *Retirer
	cfg *Config // the retire unit's, defaults applied

	// master is the current master life (nil while the master is dead) and
	// masterClock its model time: the later of the last commit at its
	// reseed and MasterCPI per distilled instruction since.
	master      *Master
	masterClock float64

	queue []*pend // program order; tail may be open

	slaveFree     []float64
	commitFree    float64
	lastCommitEnd float64
	// head is the model-time schedule of the task being retired; Clock
	// stamps its events from it.
	head schedule
}

// schedule is a head task's model-time retirement.
type schedule struct {
	p       *pend
	slave   int
	start   float64 // the slave starts executing
	compute float64 // the slave finishes executing
	done    float64 // the slave knows it is done (its end has been named)
	end     float64 // verification and commit complete
}

// Result is the outcome of a completed run.
type Result struct {
	// Metrics holds all counters and the cycle model's totals.
	Metrics Metrics
	// Final is the architected state at program halt.
	Final *state.State
	// Cycles is the modeled end-to-end execution time.
	Cycles float64
}

// New builds a machine for the given original program and distillation.
func New(orig *isa.Program, dist *distill.Result, cfg Config) (*Machine, error) {
	m := &Machine{}
	r, err := NewRetirer(orig, dist, cfg, machineEngine{m})
	if err != nil {
		return nil, err
	}
	if err := r.Cfg.validateTiming(); err != nil {
		return nil, err
	}
	m.r, m.cfg = r, &r.Cfg
	m.slaveFree = make([]float64, r.Cfg.Slaves)
	return m, nil
}

// Run executes the program to completion under MSSP and returns the result.
func (m *Machine) Run() (*Result, error) {
	m.reseed()

	for !m.r.Done {
		if m.r.Metrics.CommittedInsts > m.cfg.MaxCommitted {
			return nil, fmt.Errorf("core: committed instructions exceeded MaxCommitted=%d", m.cfg.MaxCommitted)
		}

		if m.master == nil {
			m.drain()
			continue
		}

		stop, steps, anchor, count := m.master.Run(math.MaxUint64)
		m.masterClock += float64(steps) * m.cfg.MasterCPI
		if stop != MasterForked {
			// Halted or lost (an unbounded Run never stops at MasterMax):
			// drain on the next iteration.
			m.master = nil
			continue
		}

		// The fork closes the open task, if any.
		if open := m.openTask(); open != nil {
			open.T.End = anchor
			open.T.EndCount = count
			open.T.HasEnd = true
			open.closed = true
			open.closedAt = m.masterClock
		}

		// Commit everything that would have committed by now, so the new
		// task's architected snapshot is as fresh as the hardware's.
		if m.processDue(m.masterClock) {
			continue // a squash reset the pipeline
		}

		// Enforce in-flight capacity: the master stalls until the oldest
		// task's slot frees.
		squashed := false
		for !m.r.Done && len(m.queue) >= m.cfg.TaskBuffer {
			if m.retireHead() {
				squashed = true
				break
			}
			if m.lastCommitEnd > m.masterClock {
				m.masterClock = m.lastCommitEnd // stall
			}
		}
		if squashed || m.r.Done {
			continue
		}

		m.queue = append(m.queue, &pend{
			Flight: m.r.Fork(anchor, m.master.Checkpoint(), len(m.queue)),
			forkAt: m.masterClock,
		})
	}

	m.r.Metrics.Cycles = maxf(m.lastCommitEnd, m.commitFree)
	return &Result{Metrics: m.r.Metrics, Final: m.r.Arch, Cycles: m.r.Metrics.Cycles}, nil
}

// openTask returns the youngest task if its end is still unknown.
func (m *Machine) openTask() *pend {
	if n := len(m.queue); n > 0 && !m.queue[n-1].closed {
		return m.queue[n-1]
	}
	return nil
}

// processDue verifies closed head tasks whose commit completes by time now.
// Reports whether a squash occurred.
func (m *Machine) processDue(now float64) bool {
	for !m.r.Done && len(m.queue) > 0 && m.queue[0].closed {
		h := m.queue[0]
		m.ensureExec(h)
		if m.schedule(h).end > now {
			return false
		}
		if m.retireHead() {
			return true
		}
	}
	return false
}

// drain handles a dead master: verify whatever is in flight (the youngest
// task runs to halt or the cap), or with nothing in flight make progress
// sequentially and try to revive the master.
func (m *Machine) drain() {
	if len(m.queue) == 0 {
		m.r.Fallback()
		return
	}
	if h := m.queue[0]; !h.closed {
		h.closed = true
		h.closedAt = m.masterClock
		// End remains unknown: the task runs until halt or cap.
	}
	m.retireHead()
}

// ensureExec runs the task's functional execution once, on pooled scratch.
func (m *Machine) ensureExec(p *pend) {
	if p.Ex == nil {
		p.Ex = m.r.Pool.Execute(p.T, m.cfg.MaxTaskLen)
	}
}

// slavePick returns the index of the earliest-free slave.
func (m *Machine) slavePick() int {
	best := 0
	for i := 1; i < len(m.slaveFree); i++ {
		if m.slaveFree[i] < m.slaveFree[best] {
			best = i
		}
	}
	return best
}

// schedule computes when the head task would run and retire, without
// retiring it.
func (m *Machine) schedule(h *pend) schedule {
	sl := m.slavePick()
	st := maxf(h.forkAt+m.cfg.SpawnLatency, m.slaveFree[sl])
	compute := st + float64(h.Ex.Steps)*m.cfg.SlaveCPI + m.slaveDelayOf(h)
	done := compute
	if h.Ex.Outcome == task.OutcomeReachedEnd {
		// The slave only knows it is done once the master has named the
		// next task's start.
		done = maxf(done, h.closedAt)
	}
	words := float64(h.Ex.LiveIn.Len() + h.Ex.LiveOut.Len())
	end := maxf(done, m.commitFree) + m.cfg.CommitLatency + m.cfg.CommitPerWord*words + m.verifyJitterOf(h)
	return schedule{p: h, slave: sl, start: st, compute: compute, done: done, end: end}
}

// slaveDelayOf returns the injected extra slave-completion latency for a
// task (zero without fault injection).
func (m *Machine) slaveDelayOf(h *pend) float64 {
	if f := m.cfg.Fault; f != nil && f.SlaveDelay != nil {
		if d := f.SlaveDelay(h.T.ID); d > 0 {
			return d
		}
	}
	return 0
}

// verifyJitterOf returns the injected extra verification latency for a task
// (zero without fault injection).
func (m *Machine) verifyJitterOf(h *pend) float64 {
	if f := m.cfg.Fault; f != nil && f.VerifyJitter != nil {
		if d := f.VerifyJitter(h.T.ID); d > 0 {
			return d
		}
	}
	return 0
}

// retireHead schedules the oldest task and hands it to the retire unit.
// Reports whether a squash occurred.
func (m *Machine) retireHead() (squashed bool) {
	h := m.queue[0]
	m.ensureExec(h)
	m.head = m.schedule(h)
	h.Slave = m.head.slave
	squashed, err := m.r.Retire(&h.Flight, len(m.queue)-1)
	if err != nil {
		panic(err) // unreachable: this machine never cancels a task
	}
	if !squashed {
		m.queue = m.queue[1:]
	}
	return squashed
}

// machineEngine is the Engine the machine hands its retire unit; it keeps
// the hooks off Machine's exported API.
type machineEngine struct{ m *Machine }

func (e machineEngine) Clock(ev LifecycleEvent) float64 { return e.m.clock(ev) }
func (e machineEngine) Discard()                        { e.m.discard() }
func (e machineEngine) Reseed()                         { e.m.reseed() }

// clock is the machine's Engine clock, in model cycles. Forks and reseeds
// happen at the master's clock, a head task's events at its schedule. A
// commit charges the slave and the commit unit and attributes the
// commit-to-commit gap to its limiter; a squash charges the recovery
// penalty, and a fallback exit the sequential instructions, at slave speed.
func (m *Machine) clock(ev LifecycleEvent) float64 {
	h := &m.head
	met := &m.r.Metrics
	switch ev.Kind {
	case LifecycleDispatch:
		return h.start
	case LifecycleVerify:
		return maxf(h.done, m.commitFree)
	case LifecycleCommit:
		gap := h.end - m.lastCommitEnd
		p, steps := h.p, float64(h.p.Ex.Steps)*m.cfg.SlaveCPI
		switch {
		case m.commitFree >= h.done:
			met.CommitBoundCycles += gap
		case p.Ex.Outcome == task.OutcomeReachedEnd && p.closedAt >= h.compute,
			p.forkAt+m.cfg.SpawnLatency >= m.slaveFree[h.slave] && p.forkAt+m.cfg.SpawnLatency >= h.compute-steps:
			met.MasterBoundCycles += gap
		default:
			met.SlaveBoundCycles += gap
		}
		met.SlaveBusyCycles += steps
		m.slaveFree[h.slave] = h.done
		m.commitFree, m.lastCommitEnd = h.end, h.end
		return h.end
	case LifecycleSquash:
		now := maxf(h.end, m.masterClock) + m.cfg.SquashPenalty
		met.RecoveryCycles += m.cfg.SquashPenalty
		m.lastCommitEnd, m.commitFree = now, now
		return h.end
	case LifecycleFallbackEnter:
		return maxf(m.lastCommitEnd, m.masterClock)
	case LifecycleFallbackExit:
		cost := float64(ev.Steps) * m.cfg.SlaveCPI
		now := maxf(m.lastCommitEnd, m.masterClock) + cost
		met.RecoveryCycles += cost
		m.lastCommitEnd, m.commitFree = now, now
		return now
	}
	return m.masterClock // fork, predict, policy
}

// discard is the machine's Engine recovery: every in-flight task and the
// master go.
func (m *Machine) discard() {
	for _, p := range m.queue {
		m.r.Release(&p.Flight)
	}
	m.queue = nil
	m.master = nil
}

// reseed is the machine's Engine.Reseed: a new master life starts from
// architected state at the later of the last commit and the master's own
// clock. If the architected PC does not map into the distilled program the
// master stays dead and the main loop continues in fallback mode.
func (m *Machine) reseed() {
	m.masterClock = maxf(m.lastCommitEnd, m.masterClock)
	m.master = m.r.NewMaster(&m.r.Metrics)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
