// Package mem provides the memory structures the MSSP simulator is built on:
// a sparse, word-addressed 64-bit memory (Memory), and a sparse overlay that
// additionally distinguishes "written" from "zero" cells (Overlay). Both sit
// on one generation-tagged page table — a sorted top slice of dirs, 64 mids
// per dir, 64 leaves of PageWords words per mid — whose snapshots copy one
// pointer per dir, so their cost does not grow with the image.
//
// Snapshots are the workhorse of the simulator. Architected state is
// snapshotted at every task spawn so that slave processors read the state the
// machine was in when the master forked them — exactly the stale-read hazard
// the MSSP verify/commit unit exists to catch. The master's write log is an
// Overlay snapshotted at every fork to form the checkpoint's live-in diff.
//
// Both structures carry one-entry leaf caches on their access paths, with
// a one-entry dir cache behind them (see docs/PERFORMANCE.md): the common
// sequential / stack-local access patterns of MIR programs hit the same
// leaf repeatedly, and the cache turns those accesses from a table walk
// into a pointer compare. Snapshot drops the
// write cache, which is what keeps the caches coherent with copy-on-write
// sharing.
//
// # Concurrency contract
//
// The true-parallel engine (internal/parallel, see docs/PARALLEL.md) runs
// snapshots of one family on different goroutines, so the sharing rules are
// load-bearing rather than theoretical:
//
//   - A single Memory or Overlay value is goroutine-confined. The page
//     caches make even Read/Get mutating operations, so one value must
//     never be touched by two goroutines, even read-only.
//   - Distinct members of one snapshot family may be used — including
//     Snapshot itself — from different goroutines concurrently, provided
//     each value is handed off with ordinary happens-before edges (channel
//     send, mutex). The shared generation counter is advanced atomically,
//     so generations stay unique family-wide; in-place writes only ever
//     hit nodes (dirs, mids, leaves) whose generation matches the writing
//     value's own (exclusively owned nodes), and shared nodes are only
//     ever read.
//   - A logically frozen Overlay (one nobody will mutate again, such as a
//     checkpoint diff) may be read from many goroutines at once through
//     per-goroutine OverlayReader cursors, which keep their leaf cache on
//     the reader instead of the overlay.
//
// Reset and SnapshotInto recycle allocations across lives (pooled task
// machinery); their safety rests on the same generation tags. The full
// lifecycle, pooling and aliasing contract lives in docs/MEMORY.md.
package mem

// Memory is a sparse word-addressed memory. Absent words read as zero.
//
// A Memory value and its snapshots share the page table copy-on-write:
// Snapshot copies one pointer per dir (a handful for a program image), and
// the first write to a shared leaf after a snapshot copies that leaf and its
// path. The zero value is not usable; call New.
//
// A Memory is not safe for concurrent use; the caches make even Read a
// mutating operation. Snapshots are independent values and may be used
// from different goroutines.
type Memory struct {
	table
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{table: newTable()}
}

// Read returns the word at addr (zero if never written).
func (m *Memory) Read(addr uint64) uint64 {
	if addr>>leafShift != m.rdKey {
		m.readLeaf(addr)
	}
	return m.rd.data[addr&leafMask]
}

// Write stores v at addr, copying the containing leaf and its path if they
// are shared with a snapshot.
func (m *Memory) Write(addr uint64, v uint64) {
	if addr>>leafShift == m.wrKey {
		m.wr.data[addr&leafMask] = v
		return
	}
	m.writeSlow(addr, v)
}

func (m *Memory) writeSlow(addr, v uint64) {
	if v == 0 && m.cachedDir(addr).leaf(addr) == nil {
		return // writing zero to an absent leaf is a no-op
	}
	m.own(addr).data[addr&leafMask] = v
}

// Snapshot returns a logically independent copy of the memory. The copy and
// the receiver share the page table until either side writes.
//
// Snapshot may be called concurrently on different members of one family
// (the generation counter is atomic); the receiver itself must still be
// goroutine-confined.
func (m *Memory) Snapshot() *Memory {
	clone := &Memory{}
	m.snapshotInto(&clone.table)
	return clone
}

// SnapshotInto is Snapshot with the clone's allocations recycled from dst:
// dst's top slice is overwritten in place and dst is adopted into m's
// snapshot family. It exists for the task pools (internal/task.Pool), which
// re-issue the same architected-snapshot value life after life instead of
// allocating one per spawn; in steady state the call allocates nothing.
//
// dst must be retired: no goroutine may still use it, and it must not alias
// a value anyone else holds. Its previous node references are dropped
// (copy-on-write siblings keep their own). A nil dst falls back to a plain
// Snapshot. See docs/MEMORY.md for the pooling contract.
func (m *Memory) SnapshotInto(dst *Memory) *Memory {
	if dst == nil || dst == m {
		return m.Snapshot()
	}
	m.snapshotInto(&dst.table)
	return dst
}

// CopyWords bulk-writes words starting at base. Used to load program images.
func (m *Memory) CopyWords(base uint64, words []uint64) {
	for i, w := range words {
		m.Write(base+uint64(i), w)
	}
}

// PageCount returns the number of materialized leaf pages of PageWords
// words each (for metrics).
func (m *Memory) PageCount() int { return m.leaves }

// Equal reports whether two memories hold identical contents. Leaves absent
// on one side compare equal to all-zero leaves on the other. Subtrees the
// two share are skipped by pointer compare.
func (m *Memory) Equal(o *Memory) bool {
	return diffLeaves(&m.table, &o.table, func(_ uint64, x, y *leaf) bool {
		return orZero(x).data == orZero(y).data
	})
}

// Diff calls f for every address whose value differs between m and o,
// passing the values in each, in ascending address order. Useful for
// debugging refinement failures. Diff allocates nothing and skips subtrees
// the two memories share.
func (m *Memory) Diff(o *Memory, f func(addr uint64, mv, ov uint64)) {
	diffLeaves(&m.table, &o.table, func(base uint64, x, y *leaf) bool {
		x, y = orZero(x), orZero(y)
		if x.data == y.data {
			return true
		}
		for i := range x.data {
			if x.data[i] != y.data[i] {
				f(base|uint64(i), x.data[i], y.data[i])
			}
		}
		return true
	})
}
