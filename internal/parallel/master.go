package parallel

import (
	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/state"
	"mssp/internal/task"
)

// masterLife is one incarnation of the master processor: a goroutine running
// the distilled program from a reseed point until it halts, gets lost, or is
// stopped by a squash. The coordinator owns the life's creation (it builds
// the memory image, so every architected-family snapshot the coordinator
// depends on stays ordered) and its teardown (close stop, then wait for
// exited).
//
// Channel discipline: forkCh is unbuffered, so a fork either transfers
// synchronously to the coordinator or the master sees stop — a squashed
// life can never leave a stale fork buffered. The master closes exited on
// its way out, so it never waits for the coordinator to collect it.
type masterLife struct {
	forkCh chan forkMsg
	exited chan struct{}
	stop   chan struct{}

	// st is the master's private machine state: distilled code overlaid on
	// an architected-memory snapshot as of the reseed. Master-goroutine
	// confined after the spawn handoff.
	st   *state.State
	code *cpu.Code

	// pol is the life's fork policy, log its write overlay and checkpoint
	// rule, and tally its counts (master instructions, skipped forks, how
	// the life ended). All are written only by the master goroutine; the
	// coordinator reads tally after exited closes.
	pol   core.ForkPolicy
	log   core.WriteLog
	tally core.Metrics
}

// forkMsg is one taken fork: the next task's anchor, the number of times the
// anchor's FORK was crossed since the last taken fork (the slave's
// EndCount), and the checkpoint predicting machine state at the anchor.
type forkMsg struct {
	anchor uint64
	count  uint64
	ck     task.Checkpoint
}

// masterChunk bounds one RunToStop call so the stop channel is polled at a
// predictable period even in fork-free distilled code.
const masterChunk = 4096

// runMaster is the master goroutine body. It applies the shared fork policy
// on top of the devirtualized cpu.RunToStop loop — the hot loop is the same
// one the SEQ baseline runs — and keeps the write overlay from the runner's
// store log: after each call, the logged addresses are folded into the
// life's WriteLog with the values they now hold, which is exactly the
// overlay the deterministic master builds by teeing every store. A
// checkpoint then costs the stores since the last fork plus one overlay
// snapshot, however large the master's memory image grows.
func (e *Engine) runMaster(l *masterLife) {
	defer close(l.exited)
	st, pol, log := l.st, &l.pol, &l.log

	for {
		select {
		case <-l.stop:
			return
		default:
		}

		res, err := l.code.RunToStop(st, pol.Budget(masterChunk))
		pol.Ran(res.Steps)
		for _, a := range l.code.Stores() {
			log.Diff.Set(a, st.Mem.Read(a))
		}
		if err != nil {
			l.tally.MasterLost++
			return
		}

		switch res.Kind {
		case cpu.StopHalt:
			l.tally.MasterHalts++
			return

		case cpu.StopFork:
			c, take := pol.Fork(res.Anchor)
			if !take {
				break
			}
			ck := log.Checkpoint(st.Regs, st.Mem)
			select {
			case l.forkCh <- forkMsg{anchor: res.Anchor, count: c, ck: ck}:
			case <-l.stop:
				return
			}

		case cpu.StopJalr:
			pc, ok := pol.Jump(st.PC)
			if !ok {
				l.tally.MasterLost++
				return
			}
			st.PC = pc
		}

		if pol.Lost() {
			l.tally.MasterLost++
			return
		}
	}
}
