package core

import (
	"fmt"
	"math/bits"

	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/predict"
	"mssp/internal/state"
	"mssp/internal/task"
)

// Flight is one spawned task as the retire unit sees it, from its fork to
// its retirement. Both machines embed it in their in-flight queue entries.
type Flight struct {
	// T is the task the fork spawned.
	T *task.Task
	// Ex is the slave's execution, set before the task reaches Retire.
	Ex *task.Exec
	// Slave is the index of the slave that executed the task.
	Slave int

	// applied lists the live-in predictions written into the task's
	// checkpoint, for grading at verify; exact marks the first fork of a
	// master life, whose checkpoint is architected state verbatim and
	// therefore trains nothing (it would double-count the squash point).
	applied []predict.Pred
	exact   bool
}

// Engine is what differs between the machines that share a Retirer: how
// time passes and how speculation is torn down. Everything else — verify
// precedence, commit, squash accounting, sequential fallback, prediction and
// task construction — is the Retirer's, so the two machines classify and
// retire tasks identically by construction.
type Engine interface {
	// Clock returns the Cycle stamp of a lifecycle event about to be
	// emitted and advances the engine's time through it. The deterministic
	// machine answers in model cycles and charges commit-unit, slave and
	// recovery time as commits, squashes and fallback exits pass; the
	// parallel engine ticks a virtual counter.
	Clock(ev LifecycleEvent) float64
	// Discard throws away every in-flight task (the failing head included)
	// and stops the master, after a squash.
	Discard()
	// Reseed restarts the master from architected state through
	// Retirer.NewMaster, or leaves it dead when the architected PC does not
	// map into the distilled program.
	Reseed()
}

// Retirer is the verify/commit unit both machines share: the sole writer of
// architected state. It also owns what must evolve in program order with
// that state — the task sequence, the predictor's consult and train steps,
// and the clean-code-segment tracking.
type Retirer struct {
	// Cfg is the run's configuration with defaults applied.
	Cfg Config
	// Arch is architected state.
	Arch *state.State
	// Metrics accumulates the run's counters.
	Metrics Metrics
	// Pool recycles task scratch and architected snapshots.
	Pool task.Pool
	// Done reports that architected execution reached HALT (or faulted).
	Done bool

	eng     Engine
	dist    *distill.Result
	anchors map[uint64]bool
	taskSeq uint64

	// origCode is the predecoded original program (nil when the fast path
	// is disabled). codeClean reports that the architected code segment
	// still matches it: committed live-outs and fallback stores can write
	// code addresses, and new tasks stop receiving the table the moment
	// one does. In-flight tasks keep theirs: their snapshots predate it.
	origCode  *isa.DecodedProgram
	codeClean bool
	// distCode is the predecoded distilled program every master life runs
	// over (nil when the fast path is disabled); it is immutable and shared.
	distCode *isa.DecodedProgram

	anySquash           bool
	lastSquashCommitted uint64

	// plan is the predictor's reseed-frozen consultation snapshot;
	// lifeCount counts consulted forks per site within the current master
	// life (the chain index), and firstFork marks the life's first spawn —
	// the exact task, never consulted and never trained.
	plan      *predict.Plan
	lifeCount map[uint64]int
	firstFork bool
}

// NewRetirer validates the structural configuration, applies its defaults
// and builds the retire unit for one run of orig under dist.
func NewRetirer(orig *isa.Program, dist *distill.Result, cfg Config, eng Engine) (*Retirer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := orig.Validate(); err != nil {
		return nil, fmt.Errorf("core: original program: %w", err)
	}
	if cfg.MaxCommitted == 0 {
		cfg.MaxCommitted = 10_000_000_000
	}
	if cfg.SP == 0 {
		cfg.SP = 1 << 28
	}
	if cfg.TaskBuffer == 0 {
		cfg.TaskBuffer = 4 * cfg.Slaves
	}
	if cfg.TaskBuffer < cfg.Slaves {
		cfg.TaskBuffer = cfg.Slaves
	}
	r := &Retirer{
		Cfg:     cfg,
		Arch:    state.NewFromProgram(orig, cfg.SP),
		eng:     eng,
		dist:    dist,
		anchors: dist.AnchorSet(),
	}
	if !cfg.DisableFastPath {
		if cfg.DisableFusion {
			r.origCode = isa.Predecode(orig)
			r.distCode = isa.Predecode(dist.Prog)
		} else {
			// Slaves retire fused groups; the anchor set keeps every fork
			// target out of group interiors so a task can always stop on an
			// end-anchor crossing (the slave loop guards dynamically too).
			r.origCode = fuse.Predecode(orig, fuse.Options{Anchors: r.anchors})
			r.distCode = fuse.Predecode(dist.Prog, fuse.Options{})
		}
		r.codeClean = true
	}
	return r, nil
}

// emit stamps a lifecycle event on the engine's clock and delivers it to the
// configured observer, if any. The clock runs even without an observer: the
// deterministic machine's time accounting rides on it.
func (r *Retirer) emit(ev LifecycleEvent) {
	ev.Cycle = r.eng.Clock(ev)
	if r.Cfg.OnLifecycle != nil {
		r.Cfg.OnLifecycle(ev)
	}
}

// predictOn reports whether the predictor participates in this run: like
// checkpoint sharing, prediction is gated off entirely under fault injection
// so a corrupted checkpoint can never reach the table.
func (r *Retirer) predictOn() bool {
	return r.Cfg.Predictor != nil && r.Cfg.Fault == nil
}

// consult overrides the checkpoint's unresolved registers with the frozen
// plan's forecasts for this site's next consulted fork, returning the
// applied predictions for grading at verify. The first fork of a life is
// exact (the master has only executed the FORK at the architected PC) and
// is never consulted. Forks reach the retire unit in the order the master
// took them, so the chain indices advance identically in both machines.
func (r *Retirer) consult(anchor uint64, ck *task.Checkpoint) []predict.Pred {
	first := r.firstFork
	r.firstFork = false
	if !r.predictOn() || first {
		return nil
	}
	j := r.lifeCount[anchor]
	r.lifeCount[anchor]++
	var applied []predict.Pred
	for mask := r.dist.PredictableRegs[anchor]; mask != 0; mask &= mask - 1 {
		reg := bits.TrailingZeros32(mask)
		if v, ok := r.plan.Predict(anchor, reg, j); ok {
			ck.Regs[reg] = v
			applied = append(applied, predict.Pred{Reg: reg, Val: v})
		}
	}
	return applied
}

// train delivers one verified outcome to the predictor (no-op when
// prediction is off or the task is the life's exact first fork). It must
// run before the task's live-outs are applied: the architected state it
// hands over is the truth for the task's live-ins. Training happens only
// here, in program order, which is what makes the table's evolution
// schedule-independent.
func (r *Retirer) train(f *Flight, committed bool, reason string) {
	if !r.predictOn() || f.exact {
		return
	}
	hits, misses := r.Cfg.Predictor.Train(predict.Observation{
		Site:      f.T.Start,
		Applied:   f.applied,
		LiveIn:    f.Ex.LiveIn,
		Arch:      r.Arch,
		Committed: committed,
		Reason:    reason,
	})
	r.Metrics.PredictHits += uint64(hits)
	r.Metrics.PredictMisses += uint64(misses)
}

// Fork builds the task a taken fork at anchor spawns, from the master's
// checkpoint ck, with queued tasks already in flight.
func (r *Retirer) Fork(anchor uint64, ck task.Checkpoint, queued int) Flight {
	start := anchor
	f := Flight{exact: r.firstFork}
	f.applied = r.consult(anchor, &ck)
	if fl := r.Cfg.Fault; fl != nil {
		// Injection corrupts only the spawning task's predictions — the
		// open task's end anchor keeps the uncorrupted value, so one
		// injected fault stays one fault.
		if fl.CorruptStart != nil {
			start = fl.CorruptStart(r.taskSeq, anchor)
		}
		if fl.CorruptCheckpoint != nil {
			fl.CorruptCheckpoint(r.taskSeq, &ck)
		}
	}
	f.T = &task.Task{
		ID:         r.taskSeq,
		Start:      start,
		Checkpoint: ck,
		Snap:       r.Pool.CloneState(r.Arch),
		Code:       r.taskCode(),
		NonSpec:    r.Cfg.NonSpecRegions,
	}
	r.taskSeq++
	r.Metrics.Forks++
	r.Metrics.CheckpointNew += uint64(ck.NewDiffWords)
	r.Metrics.RunaheadSum += uint64(queued)
	r.emit(LifecycleEvent{Kind: LifecycleFork, TaskID: f.T.ID, Start: start, Queue: queued + 1})
	if n := len(f.applied); n > 0 {
		r.Metrics.PredictApplied += uint64(n)
		r.emit(LifecycleEvent{Kind: LifecyclePredict, TaskID: f.T.ID, Start: start, Preds: n})
	}
	return f
}

// Release returns a retired task's pooled resources (execution scratch and
// architected snapshot). It must run exactly once per task, after its last
// use.
func (r *Retirer) Release(f *Flight) {
	r.Pool.Release(f.Ex)
	f.Ex = nil
	r.Pool.ReleaseState(f.T.Snap)
	f.T.Snap = nil
}

// verdict applies verify precedence to the head task: the squash reason it
// fails with, or "" when it may commit. Injected failures come first — a
// dropped completion or a forced fallback happens regardless of what the
// slave computed — then the start PC, the execution outcome, and last the
// live-in check, whose first mismatching cell is returned with it.
func (r *Retirer) verdict(f *Flight) (string, *state.Inconsistency) {
	if fl := r.Cfg.Fault; fl != nil {
		if fl.DropCompletion != nil && fl.DropCompletion(f.T.ID) {
			return SquashDropped, nil
		}
		if fl.ForceFallback != nil && fl.ForceFallback(f.T.ID) {
			return SquashForced, nil
		}
	}
	switch {
	case f.T.Start != r.Arch.PC:
		return SquashStartMismatch, nil
	case f.Ex.Outcome == task.OutcomeOverflow:
		return SquashOverflow, nil
	case f.Ex.Outcome == task.OutcomeFault:
		return SquashFault, nil
	case f.Ex.Outcome == task.OutcomeNonSpec:
		return SquashNonSpec, nil
	}
	if inc := r.Arch.FirstInconsistency(f.Ex.LiveIn); inc != nil {
		return SquashLiveIn, inc
	}
	return "", nil
}

// squashCounter returns the Metrics field that counts squashes for reason.
func (m *Metrics) squashCounter(reason string) *uint64 {
	switch reason {
	case SquashDropped:
		return &m.TasksDropped
	case SquashForced:
		return &m.TasksForced
	case SquashStartMismatch:
		return &m.TasksStartMismatch
	case SquashOverflow:
		return &m.TasksOverflowed
	case SquashFault:
		return &m.TasksFaulted
	case SquashNonSpec:
		return &m.TasksNonSpec
	case SquashLiveIn:
		return &m.TasksMisspec
	}
	panic("core: unknown squash reason " + reason)
}

// forcesFallback reports whether a squash for reason must run sequential
// mode before re-engaging the master: non-idempotent accesses have to
// execute architecturally, exactly once, and a forced fallback is exactly
// that request.
func forcesFallback(reason string) bool {
	return reason == SquashForced || reason == SquashNonSpec
}

// Retire verifies the oldest in-flight task, with discarded younger tasks
// behind it, and commits or squashes it; a squash includes the whole
// recovery. Reports whether it squashed; an error is an engine protocol
// violation.
func (r *Retirer) Retire(f *Flight, discarded int) (squashed bool, err error) {
	if f.Ex.Outcome == task.OutcomeCanceled {
		// Cancellation implies the task's epoch died, which implies the
		// engine already dropped it: a canceled head is an engine bug, not
		// a squash.
		return false, fmt.Errorf("core: canceled task %d at verification head", f.T.ID)
	}
	r.emit(LifecycleEvent{Kind: LifecycleDispatch, TaskID: f.T.ID, Start: f.T.Start, Slave: f.Slave})
	r.emit(LifecycleEvent{Kind: LifecycleVerify, TaskID: f.T.ID, Start: f.T.Start})
	reason, inc := r.verdict(f)
	if reason == "" {
		r.commit(f)
		return false, nil
	}
	r.squash(f, reason, inc, discarded)
	return true, nil
}

// squash rejects the head for reason: the predictor trains on the failure,
// observers see it, and recovery runs — the engine discards speculation,
// sequential mode runs when the reason demands it or when nothing committed
// since the previous squash, and the engine reseeds the master.
func (r *Retirer) squash(f *Flight, reason string, inc *state.Inconsistency, discarded int) {
	*r.Metrics.squashCounter(reason)++
	r.train(f, false, reason)
	if r.Cfg.OnSquash != nil {
		r.Cfg.OnSquash(SquashEvent{
			TaskID:        f.T.ID,
			Start:         f.T.Start,
			Reason:        reason,
			Inconsistency: inc,
			Discarded:     discarded,
			Steps:         f.Ex.Steps,
			LiveIn:        f.Ex.LiveIn,
		})
	}
	r.emit(LifecycleEvent{
		Kind:      LifecycleSquash,
		TaskID:    f.T.ID,
		Start:     f.T.Start,
		Reason:    reason,
		Discarded: discarded,
	})
	r.Metrics.Squashes++
	r.Metrics.TasksSquashedDown += uint64(discarded)
	r.eng.Discard()
	// Repeated squashes without progress fall back too, so no distilled
	// program can livelock the machine.
	if forcesFallback(reason) || (r.anySquash && r.Metrics.CommittedInsts == r.lastSquashCommitted) {
		r.seqFallback()
	}
	r.anySquash = true
	r.lastSquashCommitted = r.Metrics.CommittedInsts
	if !r.Done {
		r.eng.Reseed()
	}
}

// commit superimposes the head's live-outs: the jump. Architected state
// advances #t sequential steps (task safety: live-ins consistent). The
// predictor trains first: pre-commit architected state is the truth for
// this task's live-ins.
func (r *Retirer) commit(f *Flight) {
	ex := f.Ex
	r.train(f, true, "")
	r.noteCodeWrites(ex.LiveOut)
	r.Arch.Apply(ex.LiveOut)

	r.Metrics.TasksCommitted++
	r.Metrics.CommittedInsts += ex.Steps
	r.Metrics.LiveInWords += uint64(ex.LiveIn.Len())
	r.Metrics.LiveOutWords += uint64(ex.LiveOut.Len())

	halted := ex.Outcome == task.OutcomeHalted
	if r.Cfg.OnCommit != nil {
		r.Cfg.OnCommit(CommitEvent{
			Kind:    "task",
			TaskID:  f.T.ID,
			Start:   f.T.Start,
			Steps:   ex.Steps,
			Halted:  halted,
			LiveIn:  ex.LiveIn,
			LiveOut: ex.LiveOut,
			Arch:    r.Arch,
		})
	}
	r.emit(LifecycleEvent{Kind: LifecycleCommit, TaskID: f.T.ID, Start: f.T.Start, Steps: ex.Steps, Halted: halted})
	r.Release(f)
	if halted {
		r.Done = true
	}
}

// Fallback makes sequential progress with nothing in flight and the master
// dead, then tries to revive the master. If the architected PC does not map
// into the distilled program the master stays dead and the next call falls
// back again; forward progress is guaranteed because seqFallback always
// executes at least one instruction.
func (r *Retirer) Fallback() {
	r.seqFallback()
	if !r.Done {
		r.eng.Reseed()
	}
}

// seqFallback executes the original program non-speculatively from the
// architected state until the next anchor (or halt, or a bound). This is
// the machine's sequential mode.
func (r *Retirer) seqFallback() {
	env := cpu.StateEnv{S: r.Arch}
	// Fallback runs the original program against architected state, so the
	// predecoded table is valid exactly while the code segment is clean; the
	// runner's own dirty tracking catches stores this chunk performs.
	code := cpu.NewCode(r.taskCode())
	var steps uint64
	bound := 4 * r.Cfg.MaxTaskLen
	halted := false
	r.emit(LifecycleEvent{Kind: LifecycleFallbackEnter, Start: r.Arch.PC})
	for steps < bound {
		in, err := code.Step(env)
		if err != nil {
			// An architected-state fault is a real program fault; stop.
			halted = true
			r.Done = true
			break
		}
		steps++
		if in.Op == isa.OpHalt {
			halted = true
			r.Done = true
			break
		}
		if r.anchors[r.Arch.PC] {
			break
		}
	}
	if code.Dirty() {
		r.codeClean = false
	}
	r.Metrics.SeqFallbackInsts += steps
	r.Metrics.CommittedInsts += steps

	if r.Cfg.OnCommit != nil && steps > 0 {
		r.Cfg.OnCommit(CommitEvent{Kind: "fallback", Steps: steps, Halted: halted, Arch: r.Arch})
	}
	r.emit(LifecycleEvent{Kind: LifecycleFallbackExit, Steps: steps, Halted: halted})
}

// taskCode returns the predecoded original program for a new execution over
// architected code, or nil once the code segment has been written (or when
// the fast path is disabled).
func (r *Retirer) taskCode() *isa.DecodedProgram {
	if r.codeClean {
		return r.origCode
	}
	return nil
}

// noteCodeWrites clears codeClean if the delta binds a memory word inside
// the predecoded original code segment. Called before every live-out
// superimposition; O(live-out set), like the Apply it guards.
func (r *Retirer) noteCodeWrites(d *state.Delta) {
	if !r.codeClean || d == nil {
		return
	}
	d.Mem.Range(func(a, _ uint64) bool {
		if r.origCode.Covers(a) {
			r.codeClean = false
			return false
		}
		return true
	})
}
