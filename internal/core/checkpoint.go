package core

import (
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/task"
)

// WriteLog is a master life's write overlay and the checkpoint rule both
// machines' masters share. Diff holds every word the master stored since the
// reseed (last value wins); each checkpoint hands out a snapshot of it as the
// task's memory live-in diff, so slave reads fall through to the architected
// snapshot exactly where the master wrote nothing. One value per master
// life, confined to the goroutine running the master.
type WriteLog struct {
	// Diff is the cumulative write overlay. The deterministic master tees
	// every store into it; the parallel master folds its runner's store log
	// into it before each checkpoint.
	Diff *mem.Overlay

	cfg *Config
	// atFork is Diff.Len() at the previous checkpoint, for traffic metrics.
	atFork int
	// last is the snapshot the previous checkpoint handed out and version
	// the Diff's content version when it was taken. While the version is
	// unchanged a new snapshot would be bit-identical, so Checkpoint reuses
	// last (lazy checkpoints, docs/MEMORY.md).
	last    *mem.Overlay
	version uint64
}

// NewWriteLog returns an empty write log for a new master life under cfg.
func NewWriteLog(cfg *Config) WriteLog {
	return WriteLog{Diff: mem.NewOverlay(), cfg: cfg}
}

// Checkpoint captures the master's current prediction of machine state: its
// registers, a snapshot of the write overlay, the number of words the
// overlay gained since the previous checkpoint and, under
// MasterSuppliesAllData, a snapshot of the master's whole memory image.
//
// A store-free stretch since the previous checkpoint reuses its snapshot:
// the snapshot is immutable and slaves read it through per-task
// OverlayReader cursors, so sharing is safe. Fault injection turns the reuse
// off, because its CorruptCheckpoint hook mutates checkpoint diffs in place
// and must corrupt exactly one task.
func (w *WriteLog) Checkpoint(regs [isa.NumRegs]uint64, memory *mem.Memory) task.Checkpoint {
	ck := task.Checkpoint{
		Regs:         regs,
		NewDiffWords: w.Diff.Len() - w.atFork,
	}
	if w.cfg.Fault == nil && w.last != nil && w.Diff.Version() == w.version {
		ck.MemDiff = w.last
	} else {
		ck.MemDiff = w.Diff.Snapshot()
		w.last = ck.MemDiff
		w.version = w.Diff.Version()
	}
	w.atFork = w.Diff.Len()
	if w.cfg.MasterSuppliesAllData {
		ck.FullMem = memory.Snapshot()
	}
	return ck
}
