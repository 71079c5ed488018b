package core

import (
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/task"
)

// writeLog is a master life's write overlay and checkpoint rule. diff holds
// every word the master stored since the reseed (last value wins); each
// checkpoint hands out a snapshot of it as the task's memory live-in diff,
// so slave reads fall through to the architected snapshot exactly where the
// master wrote nothing.
type writeLog struct {
	// diff is the cumulative write overlay; Master.Run folds its runner's
	// store log into it.
	diff *mem.Overlay

	cfg *Config
	// atFork is diff.Len() at the previous checkpoint, for traffic metrics.
	atFork int
	// last is the snapshot the previous checkpoint handed out and version
	// the diff's content version when it was taken. While the version is
	// unchanged a new snapshot would be bit-identical, so checkpoint reuses
	// last (lazy checkpoints, docs/MEMORY.md).
	last    *mem.Overlay
	version uint64
}

func newWriteLog(cfg *Config) writeLog {
	return writeLog{diff: mem.NewOverlay(), cfg: cfg}
}

// checkpoint captures the master's current prediction of machine state: its
// registers, a snapshot of the write overlay, the number of words the
// overlay gained since the previous checkpoint and, under
// MasterSuppliesAllData, a snapshot of the master's whole memory image.
//
// A store-free stretch since the previous checkpoint reuses its snapshot:
// the snapshot is immutable and slaves read it through per-task
// OverlayReader cursors, so sharing is safe. Fault injection turns the reuse
// off, because its CorruptCheckpoint hook mutates checkpoint diffs in place
// and must corrupt exactly one task.
func (w *writeLog) checkpoint(regs [isa.NumRegs]uint64, memory *mem.Memory) task.Checkpoint {
	ck := task.Checkpoint{
		Regs:         regs,
		NewDiffWords: w.diff.Len() - w.atFork,
	}
	if w.cfg.Fault == nil && w.last != nil && w.diff.Version() == w.version {
		ck.MemDiff = w.last
	} else {
		ck.MemDiff = w.diff.Snapshot()
		w.last = ck.MemDiff
		w.version = w.diff.Version()
	}
	w.atFork = w.diff.Len()
	if w.cfg.MasterSuppliesAllData {
		ck.FullMem = memory.Snapshot()
	}
	return ck
}
