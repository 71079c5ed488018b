package mem

import (
	"math/bits"
	"sync/atomic"
)

type opage struct {
	gen     uint64
	present [PageWords / 64]uint64
	data    [PageWords]uint64
}

// Overlay is a sparse word-addressed map from address to value that, unlike
// Memory, distinguishes "written with zero" from "never written". It supports
// the same O(pages) copy-on-write Snapshot.
//
// Overlays model the master processor's write log: at each fork point the
// current overlay snapshot becomes the checkpoint's memory live-in diff, and
// slave reads consult it before falling back to the architected snapshot.
//
// Like Memory, an Overlay carries one-entry last-page caches on Get and Set
// (invalidated on Snapshot and Clear), so repeated accesses to one page —
// the dominant pattern in slave write buffers and live-in sets — skip the
// page map. The caches make Get a mutating operation: an Overlay is not
// safe for concurrent use, but snapshots are independent values and follow
// the package-level concurrency contract (atomic generation counter, so
// different family members may be used and snapshotted from different
// goroutines).
type Overlay struct {
	pages      map[uint64]*opage
	gen        uint64
	genCounter *uint64
	count      int // number of present words
	// version counts content mutations (Set, Clear, Reset). Snapshot leaves
	// it unchanged: equal versions across a snapshot mean equal contents,
	// which is what lets checkpoint producers reuse a previous snapshot
	// verbatim (see docs/MEMORY.md).
	version uint64

	// Last-page caches; same invariants as Memory's: getPg ==
	// pages[getPN], setPg == pages[setPN] with setPg.gen == gen.
	getPN uint64
	getPg *opage
	setPN uint64
	setPg *opage

	// free holds wiped pages Reset took out of the map; Set and SetIfAbsent
	// draw from it before allocating. Only exclusively owned pages enter it,
	// so no snapshot can reference one.
	free []*opage
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay {
	var ctr uint64 = 1
	return &Overlay{pages: make(map[uint64]*opage), gen: 1, genCounter: &ctr}
}

// Get returns the value at addr and whether it is present.
func (o *Overlay) Get(addr uint64) (uint64, bool) {
	pn := addr >> pageShift
	p := o.getPg
	if p == nil || pn != o.getPN {
		var ok bool
		p, ok = o.pages[pn]
		if !ok {
			return 0, false
		}
		o.getPg, o.getPN = p, pn
	}
	idx := addr & pageMask
	if p.present[idx/64]&(1<<(idx%64)) == 0 {
		return 0, false
	}
	return p.data[idx], true
}

// Set stores v at addr.
func (o *Overlay) Set(addr uint64, v uint64) {
	pn := addr >> pageShift
	p := o.setPg
	if p == nil || pn != o.setPN {
		var ok bool
		p, ok = o.pages[pn]
		switch {
		case !ok:
			p = o.newPage()
			o.pages[pn] = p
		case p.gen != o.gen:
			p = o.copyPage(p)
			o.pages[pn] = p
		}
		o.setPg, o.setPN = p, pn
		// A copy-on-write may have replaced the page the get cache holds.
		if o.getPg != nil && o.getPN == pn {
			o.getPg = p
		}
	}
	idx := addr & pageMask
	if p.present[idx/64]&(1<<(idx%64)) == 0 {
		p.present[idx/64] |= 1 << (idx % 64)
		o.count++
	}
	p.data[idx] = v
	o.version++
}

// SetIfAbsent binds addr to v only if addr is not already present, and
// reports whether it stored the value. It is the single-lookup form of the
// Get-then-Set pattern live-in capture uses on every memory read: one page
// walk instead of two.
func (o *Overlay) SetIfAbsent(addr, v uint64) bool {
	pn := addr >> pageShift
	p := o.setPg
	if p == nil || pn != o.setPN {
		var ok bool
		p, ok = o.pages[pn]
		switch {
		case !ok:
			p = o.newPage()
			o.pages[pn] = p
		case p.gen != o.gen:
			idx := addr & pageMask
			if p.present[idx/64]&(1<<(idx%64)) != 0 {
				return false // present in a shared page: no write, no CoW
			}
			p = o.copyPage(p)
			o.pages[pn] = p
		}
		o.setPg, o.setPN = p, pn
		// A copy-on-write may have replaced the page the get cache holds.
		if o.getPg != nil && o.getPN == pn {
			o.getPg = p
		}
	}
	idx := addr & pageMask
	if p.present[idx/64]&(1<<(idx%64)) != 0 {
		return false
	}
	p.present[idx/64] |= 1 << (idx % 64)
	p.data[idx] = v
	o.count++
	o.version++
	return true
}

// newPage returns an empty page owned by o, recycled from the free list
// when it has one. Recycled pages keep stale data words; their present
// bits are clear, so nothing reads them.
func (o *Overlay) newPage() *opage {
	if n := len(o.free); n > 0 {
		p := o.free[n-1]
		o.free = o.free[:n-1]
		p.gen = o.gen
		return p
	}
	return &opage{gen: o.gen}
}

// copyPage returns an owned copy of the shared page p.
func (o *Overlay) copyPage(p *opage) *opage {
	cp := o.newPage()
	*cp = *p
	cp.gen = o.gen
	return cp
}

// Len returns the number of present words.
func (o *Overlay) Len() int { return o.count }

// Version returns the overlay's content version: it advances on every
// mutation (Set, SetIfAbsent binding a new word, Clear, Reset) and is left
// alone by Snapshot. A producer that recorded the version at its last
// Snapshot can therefore prove "nothing changed since" with one compare and
// hand out the previous snapshot again — the checkpoint-reuse fast path of
// the master engines (docs/MEMORY.md).
func (o *Overlay) Version() uint64 { return o.version }

// Snapshot returns a logically independent copy sharing pages copy-on-write.
// As with Memory.Snapshot, distinct family members may snapshot concurrently.
func (o *Overlay) Snapshot() *Overlay {
	gen := atomic.AddUint64(o.genCounter, 2)
	clone := &Overlay{
		pages:      make(map[uint64]*opage, len(o.pages)),
		gen:        gen - 1,
		genCounter: o.genCounter,
		count:      o.count,
	}
	for pn, p := range o.pages {
		clone.pages[pn] = p
	}
	o.gen = gen
	o.getPg = nil
	o.setPg = nil
	return clone
}

// Range calls f for every present (addr, value) pair until f returns false.
// Iteration order is unspecified.
func (o *Overlay) Range(f func(addr uint64, v uint64) bool) {
	for pn, p := range o.pages {
		for w, mask := range p.present {
			for mask != 0 {
				b := bits.TrailingZeros64(mask)
				mask &^= 1 << b
				idx := uint64(w*64 + b)
				if !f(pn<<pageShift|idx, p.data[idx]) {
					return
				}
			}
		}
	}
}

// Clear removes all entries. The overlay remains usable and keeps its
// snapshot family, so outstanding snapshots are unaffected.
func (o *Overlay) Clear() {
	o.pages = make(map[uint64]*opage)
	o.gen = atomic.AddUint64(o.genCounter, 1)
	o.count = 0
	o.version++
	o.getPg = nil
	o.setPg = nil
}

// Reset removes all entries like Clear but reuses the overlay's allocations:
// the page map is emptied but keeps its buckets, and pages the overlay
// exclusively owns (generation tag equal to the overlay's own — provably
// unaliased, because every Snapshot retags both sides) are wiped and moved
// to the free list, where the next Set or SetIfAbsent picks them up. Shared
// pages may be referenced by snapshots and are dropped instead. This
// generation check is what makes pooled reuse safe: a Reset can never
// scribble on a page some outstanding snapshot still reads.
//
// Emptying the map is what keeps a pooled overlay's cost proportional to
// its current contents: Range and the next Reset visit only the pages
// written since this Reset, not every page an earlier life touched.
func (o *Overlay) Reset() {
	for _, p := range o.pages {
		if p.gen == o.gen {
			p.present = [PageWords / 64]uint64{}
			o.free = append(o.free, p)
		}
	}
	clear(o.pages)
	o.count = 0
	o.version++
	o.getPg = nil
	o.setPg = nil
}

// OverlayReader is a read-only cursor over an overlay, carrying its own
// one-entry page cache. Overlay.Get caches the last page on the overlay
// itself and is therefore a mutating call; a frozen overlay shared between
// tasks (a checkpoint diff handed to several slaves) must instead be read
// through per-reader cursors — each goroutine owns its OverlayReader, the
// shared overlay is never written, and the reads race with nothing.
//
// The cursor caches a page pointer, so it must only be used while the
// underlying overlay is logically frozen: a Set/Clear/Reset on the overlay
// invalidates every outstanding reader (docs/MEMORY.md has the aliasing
// table).
type OverlayReader struct {
	o  *Overlay
	pn uint64
	pg *opage
}

// Init points the reader at o and drops any cached page. A reader is a
// plain value; Init (re)initializes it without allocating.
func (r *OverlayReader) Init(o *Overlay) {
	r.o = o
	r.pg = nil
}

// Get returns the value at addr and whether it is present, without mutating
// the underlying overlay.
func (r *OverlayReader) Get(addr uint64) (uint64, bool) {
	pn := addr >> pageShift
	p := r.pg
	if p == nil || pn != r.pn {
		var ok bool
		p, ok = r.o.pages[pn]
		if !ok {
			return 0, false
		}
		r.pg, r.pn = p, pn
	}
	idx := addr & pageMask
	if p.present[idx/64]&(1<<(idx%64)) == 0 {
		return 0, false
	}
	return p.data[idx], true
}
