package mem

import (
	"math/bits"
	"sync/atomic"
)

// Page-table geometry. An address splits into four fields:
//
//	| top key: addr >> 19 | dir index: 6 | mid index: 6 | word in leaf: 7 |
//
// A sorted top slice maps keys to dirs; each dir holds 64 mids, each mid 64
// leaves, each leaf 128 words. The leaf size was picked by measurement (see
// docs/PERFORMANCE.md): the first write after a snapshot copies about 2 KB
// (one leaf plus its mid and dir), and a leaf is wide enough that the hot
// arrays of the Ref programs share one.
const (
	// PageWords is the number of 64-bit words per leaf page. Leaves are the
	// unit of copy-on-write sharing and of Memory.PageCount.
	PageWords = 1 << leafShift

	leafShift = 7
	leafMask  = PageWords - 1
	fanBits   = 6
	fanout    = 1 << fanBits
	fanMask   = fanout - 1
	midShift  = leafShift + fanBits // a mid spans 8 Ki words
	dirShift  = midShift + fanBits  // a dir spans 512 Ki words
)

// leaf holds PageWords words. present is used by Overlay only: bit i%64 of
// present[i/64] is set when data[i] is bound.
type leaf struct {
	gen     uint64
	present [PageWords / 64]uint64
	data    [PageWords]uint64
}

// mid and dir hold 64 children each; bit i of used is set when child i is
// non-nil, so walks visit populated slots only.
type mid struct {
	gen    uint64
	used   uint64
	leaves [fanout]*leaf
}

type dir struct {
	gen  uint64
	used uint64
	mids [fanout]*mid
}

type dirEntry struct {
	key uint64 // addr >> dirShift
	d   *dir
}

// zeroLeaf stands in for an absent leaf in the read caches and in
// whole-leaf compares. It never enters a tree and is never written.
var zeroLeaf leaf

// noKey is the key of an empty cache: no address shifts to it.
const noKey = ^uint64(0)

// table is the generation-tagged page table Memory and Overlay share.
//
// Every node (dir, mid, leaf) carries the generation it was created in. A
// node whose tag equals the table's own gen is exclusively owned: it was
// created or copied after the table's last snapshot, so no sibling can
// reference it, and it may be written in place. Nodes are only ever created
// or copied top-down under the current generation, so an owned leaf always
// hangs off an owned mid and an owned dir. Snapshot copies the top slice
// (one entry per dir) and retags both sides, which makes every node shared.
type table struct {
	top        []dirEntry // sorted by key; never shared between tables
	gen        uint64
	genCounter *uint64 // shared by the snapshot family, advanced atomically
	leaves     int     // materialized leaves

	// Caches, keyed by the address shifted by their node's span:
	// addr>>leafShift for rd and wr, addr>>dirShift for dirC. A key of noKey
	// marks an entry empty; no address shifts to it. Otherwise: rd is the
	// leaf holding the words at rdKey, or zeroLeaf if that leaf is absent;
	// wr is that leaf for wrKey and is owned (wr.gen == gen); dirC is the
	// dir for dirKey, owned or not, which keeps a miss off the top slice's
	// binary search. A snapshot leaves the tree as it was, so it empties
	// only wr.
	rdKey  uint64
	rd     *leaf
	wrKey  uint64
	wr     *leaf
	dirKey uint64
	dirC   *dir

	// Free lists of zeroed nodes this table owns and no tree references.
	// Only Overlay.Reset fills them; own draws from them before allocating.
	freeLeaves []*leaf
	freeMids   []*mid
	freeDirs   []*dir
}

func newTable() table {
	ctr := uint64(1)
	t := table{gen: 1, genCounter: &ctr}
	t.dropCaches()
	return t
}

func (t *table) dropCaches() {
	t.rdKey, t.wrKey, t.dirKey = noKey, noKey, noKey
	t.rd, t.wr, t.dirC = nil, nil, nil
}

// search returns the index of the first top entry whose key is >= k.
func (t *table) search(k uint64) int {
	lo, hi := 0, len(t.top)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if t.top[h].key < k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

func (t *table) findDir(k uint64) *dir {
	if i := t.search(k); i < len(t.top) && t.top[i].key == k {
		return t.top[i].d
	}
	return nil
}

// find returns the leaf holding addr, or nil. It only reads the tree, so it
// is safe on a frozen table shared between goroutines.
func (t *table) find(addr uint64) *leaf {
	d := t.findDir(addr >> dirShift)
	if d == nil {
		return nil
	}
	return d.leaf(addr)
}

// cachedDir returns the dir covering addr, or emptyDir if it is absent,
// through the owner's dir cache. The cache hit inlines into its callers, so
// a leaf-cache miss costs one call.
func (t *table) cachedDir(addr uint64) *dir {
	if addr>>dirShift != t.dirKey {
		t.loadDir(addr >> dirShift)
	}
	return t.dirC
}

// loadDir loads the dir cache with the dir for key k, or emptyDir if it is
// absent. emptyDir is never written: its generation matches no table's, so
// own replaces it like any shared dir.
func (t *table) loadDir(k uint64) {
	d := t.findDir(k)
	if d == nil {
		d = &emptyDir
	}
	t.dirC, t.dirKey = d, k
}

// readLeaf loads the read cache with the leaf holding addr, or zeroLeaf if
// it is absent.
func (t *table) readLeaf(addr uint64) {
	l := t.cachedDir(addr).leaf(addr)
	if l == nil {
		l = &zeroLeaf
	}
	t.rd, t.rdKey = l, addr>>leafShift
}

func (d *dir) leaf(addr uint64) *leaf {
	md := d.mids[addr>>midShift&fanMask]
	if md == nil {
		return nil
	}
	return md.leaves[addr>>leafShift&fanMask]
}

// own returns the leaf holding addr as an owned node, creating absent nodes
// and copying shared ones along its path, and caches it as the write leaf.
func (t *table) own(addr uint64) *leaf {
	k := addr >> dirShift
	d := t.dirC
	if k != t.dirKey || d.gen != t.gen {
		d = t.ownDir(k)
		t.dirC, t.dirKey = d, k
	}
	mi := addr >> midShift & fanMask
	md := d.mids[mi]
	switch {
	case md == nil:
		md = t.newMid()
		d.mids[mi] = md
		d.used |= 1 << mi
	case md.gen != t.gen:
		cp := t.newMid()
		*cp = *md
		cp.gen = t.gen
		md = cp
		d.mids[mi] = md
	}
	lk := addr >> leafShift
	li := lk & fanMask
	l := md.leaves[li]
	switch {
	case l == nil:
		l = t.newLeaf()
		md.leaves[li] = l
		md.used |= 1 << li
		t.leaves++
	case l.gen != t.gen:
		cp := t.newLeaf()
		*cp = *l
		cp.gen = t.gen
		l = cp
		md.leaves[li] = l
	}
	// A new or copied leaf replaced the one the read cache may hold.
	if t.rdKey == lk {
		t.rd = l
	}
	t.wr, t.wrKey = l, lk
	return l
}

// ownDir returns the owned dir for key k, inserting or copying it.
func (t *table) ownDir(k uint64) *dir {
	i := t.search(k)
	if i < len(t.top) && t.top[i].key == k {
		d := t.top[i].d
		if d.gen != t.gen {
			cp := t.newDir()
			*cp = *d
			cp.gen = t.gen
			d = cp
			t.top[i].d = d
		}
		return d
	}
	d := t.newDir()
	t.top = append(t.top, dirEntry{})
	copy(t.top[i+1:], t.top[i:])
	t.top[i] = dirEntry{key: k, d: d}
	return d
}

func (t *table) newLeaf() *leaf {
	if l := take(&t.freeLeaves); l != nil {
		l.gen = t.gen
		return l
	}
	return &leaf{gen: t.gen}
}

func (t *table) newMid() *mid {
	if md := take(&t.freeMids); md != nil {
		md.gen = t.gen
		return md
	}
	return &mid{gen: t.gen}
}

func (t *table) newDir() *dir {
	if d := take(&t.freeDirs); d != nil {
		d.gen = t.gen
		return d
	}
	return &dir{gen: t.gen}
}

// take pops a node off a free list, or returns nil if it is empty.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// snapshotInto makes c a copy-on-write sibling of t: c gets its own copy of
// the top slice (reusing c's backing array) and joins t's family. One atomic
// bump hands out two fresh generations, one for c and one for t, so every
// node is shared afterwards and t drops its write cache. t's read and dir
// caches stay valid: the tree itself did not change.
func (t *table) snapshotInto(c *table) {
	gen := atomic.AddUint64(t.genCounter, 2)
	clear(c.top)
	c.top = append(c.top[:0], t.top...)
	c.gen = gen - 1
	c.genCounter = t.genCounter
	c.leaves = t.leaves
	c.dropCaches()
	t.gen = gen
	t.wr, t.wrKey = nil, noKey
}

// recycle empties an overlay's table, moving every owned node to the free
// lists and dropping shared ones. A shared dir cannot hold an owned mid, nor
// a shared mid an owned leaf, so skipping shared subtrees misses no owned
// node — and never recycles one a snapshot still reads. Recycled nodes are
// zeroed slot by slot through their occupancy masks; a leaf's only nonzero
// words are its bound ones.
func (t *table) recycle() {
	for i, e := range t.top {
		t.top[i] = dirEntry{}
		d := e.d
		if d.gen != t.gen {
			continue
		}
		for m := d.used; m != 0; m &= m - 1 {
			mi := bits.TrailingZeros64(m)
			md := d.mids[mi]
			d.mids[mi] = nil
			if md.gen != t.gen {
				continue
			}
			for lm := md.used; lm != 0; lm &= lm - 1 {
				li := bits.TrailingZeros64(lm)
				l := md.leaves[li]
				md.leaves[li] = nil
				if l.gen != t.gen {
					continue
				}
				for pi, w := range l.present {
					for ; w != 0; w &= w - 1 {
						l.data[pi<<6|bits.TrailingZeros64(w)] = 0
					}
				}
				l.present = [PageWords / 64]uint64{}
				t.freeLeaves = append(t.freeLeaves, l)
			}
			md.used = 0
			t.freeMids = append(t.freeMids, md)
		}
		d.used = 0
		t.freeDirs = append(t.freeDirs, d)
	}
	t.top = t.top[:0]
	t.leaves = 0
	t.dropCaches()
}

// diffLeaves calls f, in ascending address order, for every leaf position
// where a and b hold different nodes; an absent leaf is passed as nil.
// Subtrees the two tables share are skipped by pointer compare, so siblings
// compare in time proportional to what they wrote since they parted. It
// stops and returns false as soon as f does.
func diffLeaves(a, b *table, f func(base uint64, x, y *leaf) bool) bool {
	i, j := 0, 0
	for i < len(a.top) || j < len(b.top) {
		var (
			k    uint64
			x, y *dir
		)
		switch {
		case j == len(b.top) || i < len(a.top) && a.top[i].key < b.top[j].key:
			k, x = a.top[i].key, a.top[i].d
			i++
		case i == len(a.top) || b.top[j].key < a.top[i].key:
			k, y = b.top[j].key, b.top[j].d
			j++
		default:
			k, x, y = a.top[i].key, a.top[i].d, b.top[j].d
			i++
			j++
		}
		if x != y && !diffDirs(k<<dirShift, x, y, f) {
			return false
		}
	}
	return true
}

func diffDirs(base uint64, x, y *dir, f func(base uint64, x, y *leaf) bool) bool {
	x, y = orEmptyDir(x), orEmptyDir(y)
	for m := x.used | y.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		mx, my := orEmptyMid(x.mids[i]), orEmptyMid(y.mids[i])
		if mx == my {
			continue
		}
		mb := base | uint64(i)<<midShift
		for lm := mx.used | my.used; lm != 0; lm &= lm - 1 {
			j := bits.TrailingZeros64(lm)
			if lx, ly := mx.leaves[j], my.leaves[j]; lx != ly && !f(mb|uint64(j)<<leafShift, lx, ly) {
				return false
			}
		}
	}
	return true
}

var (
	emptyDir dir
	emptyMid mid
)

func orEmptyDir(d *dir) *dir {
	if d == nil {
		return &emptyDir
	}
	return d
}

func orEmptyMid(md *mid) *mid {
	if md == nil {
		return &emptyMid
	}
	return md
}

// orZero returns l, or the all-zero leaf for an absent one.
func orZero(l *leaf) *leaf {
	if l == nil {
		return &zeroLeaf
	}
	return l
}
