package mem

import "math/bits"

// Overlay is a sparse word-addressed map from address to value that, unlike
// Memory, distinguishes "written with zero" from "never written". It sits on
// the same page table as Memory and supports the same copy-on-write
// Snapshot, whose cost does not grow with the overlay.
//
// Overlays model the master processor's write log: at each fork point the
// current overlay snapshot becomes the checkpoint's memory live-in diff, and
// slave reads consult it before falling back to the architected snapshot.
//
// Like Memory, an Overlay carries one-entry leaf caches on Get and Set
// (Snapshot drops the Set cache, Reset both), so repeated accesses to one
// leaf — the dominant pattern in slave write buffers and live-in sets —
// skip the table walk. The caches make Get a mutating operation: an Overlay
// is not safe for concurrent use, but snapshots are independent values and
// follow the package-level concurrency contract (atomic generation counter,
// so different family members may be used and snapshotted from different
// goroutines).
type Overlay struct {
	table
	count int // number of present words
	// version counts content mutations (Set, SetIfAbsent, Reset). Snapshot
	// leaves it unchanged: equal versions across a snapshot mean equal
	// contents, which is what lets checkpoint producers reuse a previous
	// snapshot verbatim (see docs/MEMORY.md).
	version uint64
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay {
	return &Overlay{table: newTable()}
}

// Get returns the value at addr and whether it is present.
func (o *Overlay) Get(addr uint64) (uint64, bool) {
	if addr>>leafShift != o.rdKey {
		o.readLeaf(addr)
	}
	return o.rd.word(addr)
}

// word returns the overlay word at addr and whether it is bound. An unbound
// word of a leaf always holds zero: leaves start zeroed, only Set and
// SetIfAbsent write data, and both bind the word they write.
func (l *leaf) word(addr uint64) (uint64, bool) {
	i := addr & leafMask
	return l.data[i], l.present[i>>6]&(1<<(i&63)) != 0
}

// Set stores v at addr.
func (o *Overlay) Set(addr uint64, v uint64) {
	l := o.wr
	if addr>>leafShift != o.wrKey {
		l = o.own(addr)
	}
	i := addr & leafMask
	if l.present[i>>6]&(1<<(i&63)) == 0 {
		l.present[i>>6] |= 1 << (i & 63)
		o.count++
	}
	l.data[i] = v
	o.version++
}

// SetIfAbsent binds addr to v only if addr is not already present, and
// reports whether it stored the value. Live-in capture calls it on every
// memory read. On the write leaf it is one cached check; elsewhere it reads
// the word through Get first, so a word already present on a shared leaf is
// refused without copying the leaf or its path.
func (o *Overlay) SetIfAbsent(addr, v uint64) bool {
	l := o.wr
	if addr>>leafShift != o.wrKey {
		if _, ok := o.Get(addr); ok {
			return false // present, possibly in a shared leaf: no write, no copy
		}
		l = o.own(addr)
	}
	i := addr & leafMask
	if l.present[i>>6]&(1<<(i&63)) != 0 {
		return false
	}
	l.present[i>>6] |= 1 << (i & 63)
	l.data[i] = v
	o.count++
	o.version++
	return true
}

// Len returns the number of present words.
func (o *Overlay) Len() int { return o.count }

// Version returns the overlay's content version: it advances on every
// mutation (Set, SetIfAbsent binding a new word, Reset) and is left alone
// by Snapshot. A producer that recorded the version at its last Snapshot
// can therefore prove "nothing changed since" with one compare and hand out
// the previous snapshot again — the checkpoint-reuse fast path of the
// master engines (docs/MEMORY.md).
func (o *Overlay) Version() uint64 { return o.version }

// Snapshot returns a logically independent copy sharing the page table
// copy-on-write. As with Memory.Snapshot, distinct family members may
// snapshot concurrently.
func (o *Overlay) Snapshot() *Overlay {
	clone := &Overlay{count: o.count, version: o.version}
	o.snapshotInto(&clone.table)
	return clone
}

// Range calls f for every present (addr, value) pair, in ascending address
// order, until f returns false.
func (o *Overlay) Range(f func(addr uint64, v uint64) bool) {
	for _, e := range o.top {
		d := e.d
		for m := d.used; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			md := d.mids[i]
			for lm := md.used; lm != 0; lm &= lm - 1 {
				j := bits.TrailingZeros64(lm)
				l := md.leaves[j]
				base := e.key<<dirShift | uint64(i)<<midShift | uint64(j)<<leafShift
				for pi, w := range l.present {
					for ; w != 0; w &= w - 1 {
						b := pi<<6 | bits.TrailingZeros64(w)
						if !f(base|uint64(b), l.data[b]) {
							return
						}
					}
				}
			}
		}
	}
}

// Reset removes all entries and reuses the overlay's allocations: the top
// slice is emptied but keeps its capacity, and nodes the overlay exclusively
// owns (generation tag equal to the overlay's own — provably unaliased,
// because every Snapshot retags both sides) are zeroed and moved to free
// lists, where the next Set or SetIfAbsent picks them up. Shared nodes may
// be referenced by snapshots and are dropped instead; an owned leaf always
// hangs off an owned path, so no owned node hides under a shared one. This
// generation check is what makes pooled reuse safe: a Reset can never
// scribble on a node some outstanding snapshot still reads. The overlay
// keeps its snapshot family, so outstanding snapshots are unaffected.
//
// Emptying the table is what keeps a pooled overlay's cost proportional to
// its current contents: Range and the next Reset visit only the nodes
// written since this Reset, not every node an earlier life touched.
func (o *Overlay) Reset() {
	o.recycle()
	o.count = 0
	o.version++
}

// OverlayReader is a read-only cursor over an overlay, carrying its own
// one-entry leaf cache. Overlay.Get caches the last leaf on the overlay
// itself and is therefore a mutating call; a frozen overlay shared between
// tasks (a checkpoint diff handed to several slaves) must instead be read
// through per-reader cursors — each goroutine owns its OverlayReader, the
// shared overlay is never written, and the reads race with nothing.
//
// The cursor caches a leaf pointer, so it must only be used while the
// underlying overlay is logically frozen: a Set/Reset on the overlay
// invalidates every outstanding reader (docs/MEMORY.md has the aliasing
// table).
type OverlayReader struct {
	o   *Overlay
	key uint64
	l   *leaf
}

// Init points the reader at o and drops any cached leaf. A reader is a
// plain value; Init (re)initializes it without allocating.
func (r *OverlayReader) Init(o *Overlay) {
	r.o, r.key, r.l = o, noKey, nil
}

// Get returns the value at addr and whether it is present, without mutating
// the underlying overlay.
func (r *OverlayReader) Get(addr uint64) (uint64, bool) {
	l := r.l
	if addr>>leafShift != r.key {
		l = r.load(addr)
	}
	return l.word(addr)
}

func (r *OverlayReader) load(addr uint64) *leaf {
	l := r.o.find(addr)
	if l == nil {
		l = &zeroLeaf
	}
	r.l, r.key = l, addr>>leafShift
	return l
}
