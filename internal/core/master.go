package core

import (
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/predict"
	"mssp/internal/state"
	"mssp/internal/task"
)

// Master is one life of the master processor: the distilled program running
// from a reseed point over a private speculative image until it halts, loses
// its way, or recovery discards it. Both machines run their masters through
// it — the deterministic machine inline, the parallel engine on a goroutine
// of its own — so the run loop, the fork policy and the checkpoint rule
// exist once. A Master is confined to the goroutine running it; nothing it
// does can touch architected state.
type Master struct {
	// st is the speculative image: architected state as of the reseed with
	// the distilled code copied over it, entered at the distilled PC.
	st *state.State
	// code runs the distilled program over st. Each life gets a fresh
	// runner: the reseed re-copies the distilled code into the image, so the
	// shared table is valid again even if the previous life overwrote code.
	code *cpu.Code
	pol  forkPolicy
	log  writeLog
}

// MasterStop says why Master.Run returned.
type MasterStop uint8

const (
	// MasterForked: the master took a fork; Checkpoint captures it.
	MasterForked MasterStop = iota
	// MasterHalted: the master executed HALT; the life is over.
	MasterHalted
	// MasterLost: the master faulted, jumped out of distilled code or ran
	// past the run-ahead cap; the life is over.
	MasterLost
	// MasterMax: the master ran its instruction budget without any of the
	// above.
	MasterMax
)

// NewMaster begins a master life from architected state, or returns nil
// when the architected PC does not map into the distilled program. A reseed
// is the predictor's lockstep point: nothing is in flight and architected
// state is the only truth, so the consultation plan for the coming life
// freezes here and the per-site chain indices restart. tally receives the
// life's master instruction, fork-skip, halt and lost counts.
func (r *Retirer) NewMaster(tally *Metrics) *Master {
	dpc, ok := r.dist.OrigToDist[r.Arch.PC]
	if !ok {
		return nil
	}
	r.firstFork = true
	if r.predictOn() {
		r.plan = r.Cfg.Predictor.Plan()
		r.lifeCount = make(map[uint64]int)
		if d := r.plan.Disabled(); d > 0 {
			r.emit(LifecycleEvent{Kind: LifecyclePolicy, Disabled: d})
		}
	}
	img := r.Arch.Mem.Snapshot()
	img.CopyWords(r.dist.Prog.Code.Base, r.dist.Prog.Code.Words)
	return &Master{
		st:   &state.State{Regs: r.Arch.Regs, PC: dpc, Mem: img},
		code: cpu.NewCode(r.distCode),
		pol:  newForkPolicy(&r.Cfg, r.dist, r.plan, tally),
		log:  newWriteLog(&r.Cfg),
	}
}

// Run advances the master by at most max distilled instructions on the
// devirtualized cpu.Code.RunToStop loop, stopping early at a taken fork, a
// halt, or when the master loses its way. It returns why it stopped and how
// many instructions it ran; for a taken fork also the fork's anchor (an
// original-program PC) and the number of times the anchor was crossed since
// the previous taken fork, which becomes the open task's EndCount.
//
// After each RunToStop call the runner's store log is folded into the write
// overlay with the values the logged addresses now hold. RunToStop stops at
// every FORK, so at a taken fork the overlay is exactly the one a master
// teeing every store would hold, and a checkpoint costs the stores since
// the last fork, however large the image grows.
func (m *Master) Run(max uint64) (stop MasterStop, steps, anchor, count uint64) {
	for steps < max {
		res, err := m.code.RunToStop(m.st, m.pol.Budget(max-steps))
		steps += res.Steps
		m.pol.Ran(res.Steps)
		for _, a := range m.code.Stores() {
			m.log.diff.Set(a, m.st.Mem.Read(a))
		}
		if err != nil {
			return m.lose(), steps, 0, 0
		}
		switch res.Kind {
		case cpu.StopHalt:
			m.pol.tally.MasterHalts++
			return MasterHalted, steps, 0, 0
		case cpu.StopFork:
			if c, take := m.pol.Fork(res.Anchor); take {
				return MasterForked, steps, res.Anchor, c
			}
		case cpu.StopJalr:
			pc, ok := m.pol.Jump(m.st.PC)
			if !ok {
				return m.lose(), steps, 0, 0
			}
			m.st.PC = pc
		}
		if m.pol.Lost() {
			return m.lose(), steps, 0, 0
		}
	}
	return MasterMax, steps, 0, 0
}

func (m *Master) lose() MasterStop {
	m.pol.tally.MasterLost++
	return MasterLost
}

// Checkpoint captures the master's prediction of machine state at the fork
// Run just took.
func (m *Master) Checkpoint() task.Checkpoint {
	return m.log.checkpoint(m.st.Regs, m.st.Mem)
}

// forkPolicy is a master life's fork-taking rule. It counts the distilled
// instructions the master retires and decides, FORK by FORK, whether to
// spawn a task there, translates indirect jump targets, and declares the
// master lost past the run-ahead cap.
type forkPolicy struct {
	cfg   *Config
	dist  *distill.Result
	plan  *predict.Plan // nil when prediction is off: every site eligible
	tally *Metrics

	// since counts distilled instructions since the last taken fork;
	// crossings counts dynamic executions of each anchor's FORK since then.
	// The count for the taken anchor becomes the task's EndCount, so the
	// slave lets the same number of occurrences pass.
	since     uint64
	crossings map[uint64]uint64
}

func newForkPolicy(cfg *Config, dist *distill.Result, plan *predict.Plan, tally *Metrics) forkPolicy {
	return forkPolicy{
		cfg:   cfg,
		dist:  dist,
		plan:  plan,
		tally: tally,
		// The master restarts on the fork at the architected PC; that fork
		// must be taken unconditionally (it starts the first post-reseed
		// task exactly where architected state stands), so the spacing
		// counter is primed past any threshold.
		since:     1 << 62,
		crossings: make(map[uint64]uint64),
	}
}

// Ran records n more distilled instructions retired by the master.
func (p *forkPolicy) Ran(n uint64) {
	p.since += n
	p.tally.MasterInsts += n
}

// Fork decides whether the master takes the FORK at anchor it just retired.
// When it does, count is the number of times the anchor was crossed since
// the previous taken fork.
func (p *forkPolicy) Fork(anchor uint64) (count uint64, take bool) {
	p.crossings[anchor]++
	if p.since <= p.cfg.MinTaskSpacing {
		p.tally.ForksSkipped++
		return 0, false
	}
	// The adaptive policy suppresses forks at sites whose checkpoints keep
	// squashing, merging their regions into longer neighboring tasks. The
	// life's first fork (primed spacing counter) is always taken: it
	// restarts speculation exactly where architected state stands. The skip
	// is bounded at half the run-ahead cap — a disabled site forks anyway
	// once the master has run that far, so backing off the only site in a
	// program merges regions instead of driving the master lost.
	if p.since < 1<<61 && p.since <= p.cfg.MasterRunaheadCap/2 && !p.plan.Eligible(anchor) {
		p.tally.PolicyForksSkipped++
		return 0, false
	}
	p.since = 0
	count = p.crossings[anchor]
	clear(p.crossings)
	return count, true
}

// Jump translates an indirect-jump target. Targets in distilled code are
// original-program addresses (the distiller predicts original link values),
// so they map into the distilled address space; an untranslatable target
// that is not already distilled code means the master has lost its way.
func (p *forkPolicy) Jump(target uint64) (pc uint64, ok bool) {
	if dpc, ok := p.dist.OrigToDist[target]; ok {
		return dpc, true
	}
	return target, p.dist.Prog.InCode(target)
}

// Lost reports that the master ran past the run-ahead cap without taking a
// fork: it is stuck in a loop the distiller broke.
func (p *forkPolicy) Lost() bool { return p.since > p.cfg.MasterRunaheadCap }

// Budget returns how many instructions, at most max, the master may run
// before Lost must be checked again. A freshly primed life gets one: its
// first instruction must be the fork at the architected PC.
func (p *forkPolicy) Budget(max uint64) uint64 {
	if p.since > p.cfg.MasterRunaheadCap {
		return 1
	}
	return min(max, p.cfg.MasterRunaheadCap-p.since+1)
}
