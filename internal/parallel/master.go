package parallel

import (
	"mssp/internal/core"
	"mssp/internal/task"
)

// masterLife is one incarnation of the master processor: a goroutine running
// a core.Master from a reseed point until it halts, gets lost, or is stopped
// by a squash. The coordinator owns the life's creation (core.NewMaster
// snapshots architected memory, so every architected-family snapshot the
// coordinator depends on stays ordered) and its teardown (close stop, then
// wait for exited).
//
// Channel discipline: forkCh is unbuffered, so a fork either transfers
// synchronously to the coordinator or the master sees stop — a squashed
// life can never leave a stale fork buffered. The master closes exited on
// its way out, so it never waits for the coordinator to collect it.
type masterLife struct {
	forkCh chan forkMsg
	exited chan struct{}
	stop   chan struct{}

	// m is the life's master and tally its counts (master instructions,
	// skipped forks, how the life ended). Both are master-goroutine
	// confined after the spawn handoff; the coordinator reads tally after
	// exited closes.
	m     *core.Master
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

// masterChunk bounds one Master.Run call so the stop channel is polled at a
// predictable period even in fork-free distilled code.
const masterChunk = 4096

// runMaster is the master goroutine body: poll stop, run the master a chunk
// at a time, and hand each taken fork to the coordinator.
func (e *Engine) runMaster(l *masterLife) {
	defer close(l.exited)
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		switch stop, _, anchor, count := l.m.Run(masterChunk); stop {
		case core.MasterHalted, core.MasterLost:
			return
		case core.MasterForked:
			select {
			case l.forkCh <- forkMsg{anchor: anchor, count: count, ck: l.m.Checkpoint()}:
			case <-l.stop:
				return
			}
		}
	}
}
