package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// White-box helpers: the reuse and page-table tests inspect the table
// through these, not through its fields.

// mappedLeaves returns every leaf reachable from t's top slice.
func (t *table) mappedLeaves() []*leaf {
	var ls []*leaf
	for _, e := range t.top {
		for _, md := range &e.d.mids {
			if md == nil {
				continue
			}
			for _, l := range &md.leaves {
				if l != nil {
					ls = append(ls, l)
				}
			}
		}
	}
	return ls
}

// nodes returns the set of every node (dir, mid or leaf) reachable from t.
func (t *table) nodes() map[any]bool {
	set := make(map[any]bool)
	for _, e := range t.top {
		set[e.d] = true
		for _, md := range &e.d.mids {
			if md == nil {
				continue
			}
			set[md] = true
			for _, l := range &md.leaves {
				if l != nil {
					set[l] = true
				}
			}
		}
	}
	return set
}

// freeNodes returns every node on t's free lists.
func (t *table) freeNodes() []any {
	var ns []any
	for _, l := range t.freeLeaves {
		ns = append(ns, l)
	}
	for _, md := range t.freeMids {
		ns = append(ns, md)
	}
	for _, d := range t.freeDirs {
		ns = append(ns, d)
	}
	return ns
}

// checkShape verifies the table's structural invariants: the top slice is
// sorted and duplicate-free, every occupancy mask matches its non-nil
// children, an owned node hangs only off owned parents, and the leaf count
// matches the reachable leaves.
func (t *table) checkShape() error {
	leaves := 0
	for i, e := range t.top {
		if i > 0 && t.top[i-1].key >= e.key {
			return fmt.Errorf("top slice unsorted at %d", i)
		}
		for mi, md := range &e.d.mids {
			if (md != nil) != (e.d.used&(1<<mi) != 0) {
				return fmt.Errorf("dir %#x: used bit %d disagrees with mid", e.key, mi)
			}
			if md == nil {
				continue
			}
			if md.gen == t.gen && e.d.gen != t.gen {
				return fmt.Errorf("dir %#x: owned mid under a shared dir", e.key)
			}
			for li, l := range &md.leaves {
				if (l != nil) != (md.used&(1<<li) != 0) {
					return fmt.Errorf("dir %#x mid %d: used bit %d disagrees with leaf", e.key, mi, li)
				}
				if l == nil {
					continue
				}
				leaves++
				if l.gen == t.gen && md.gen != t.gen {
					return fmt.Errorf("dir %#x mid %d: owned leaf under a shared mid", e.key, mi)
				}
			}
		}
	}
	if leaves != t.leaves {
		return fmt.Errorf("leaf count %d, %d leaves reachable", t.leaves, leaves)
	}
	return nil
}

func sameNodes(a, b map[any]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for n := range a {
		if !b[n] {
			return false
		}
	}
	return true
}

// tableAddrs are the addresses the model tests draw from: both sides of
// every leaf, mid and dir boundary near 0, 1<<20, 1<<28, 1<<63 and the top
// of the address space.
var tableAddrs = func() []uint64 {
	var as []uint64
	for _, base := range []uint64{0, 1 << 20, 1 << 28, 1 << 63, ^uint64(0) - 2<<dirShift} {
		for _, unit := range []uint64{PageWords, 1 << midShift, 1 << dirShift} {
			for m := uint64(0); m <= 2; m++ {
				for _, d := range []uint64{^uint64(0), 0, 1} { // -1, 0, +1
					as = append(as, base+m*unit+d)
				}
			}
		}
	}
	return append(as, ^uint64(0), ^uint64(0)-1)
}()

func pickAddr(rng *rand.Rand) uint64 { return tableAddrs[rng.Intn(len(tableAddrs))] }

func copyModel(m map[uint64]uint64) map[uint64]uint64 {
	c := make(map[uint64]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// memCase is a Memory paired with the plain map it must agree with.
type memCase struct {
	m     *Memory
	model map[uint64]uint64
}

// check compares every test address with Read and checks the table's shape
// (which includes PageCount against the leaves actually reachable).
func (c memCase) check(t *testing.T, what string) {
	t.Helper()
	for _, a := range tableAddrs {
		if got := c.m.Read(a); got != c.model[a] {
			t.Fatalf("%s: Read(%#x) = %d, model %d", what, a, got, c.model[a])
		}
	}
	if err := c.m.checkShape(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// checkDiff compares Equal and Diff between two cases with their models.
func checkDiff(t *testing.T, a, b memCase) {
	t.Helper()
	want := map[uint64][2]uint64{}
	for k, v := range a.model {
		if v != b.model[k] {
			want[k] = [2]uint64{v, b.model[k]}
		}
	}
	for k, v := range b.model {
		if v != a.model[k] {
			want[k] = [2]uint64{a.model[k], v}
		}
	}
	if got := a.m.Equal(b.m); got != (len(want) == 0) {
		t.Fatalf("Equal = %v, models differ in %d words", got, len(want))
	}
	var prev uint64
	n := 0
	a.m.Diff(b.m, func(addr, mv, ov uint64) {
		if n > 0 && addr <= prev {
			t.Fatalf("Diff out of order: %#x after %#x", addr, prev)
		}
		prev = addr
		n++
		if w, ok := want[addr]; !ok || w != [2]uint64{mv, ov} {
			t.Fatalf("Diff reported %#x = %d/%d, model wants %v (%v)", addr, mv, ov, w, ok)
		}
	})
	if n != len(want) {
		t.Fatalf("Diff reported %d words, models differ in %d", n, len(want))
	}
}

// runMemoryModel drives random Write, Read, Snapshot, SnapshotInto, Equal
// and Diff operations over a family rooted at root, checking every step
// against plain maps. Held snapshots are written to later (switching the
// current member) and all are re-checked at the end.
func runMemoryModel(t *testing.T, rng *rand.Rand, root memCase, ops int) {
	held := []memCase{root}
	cur := 0
	for i := 0; i < ops; i++ {
		c := held[cur]
		a := pickAddr(rng)
		switch op := rng.Intn(20); {
		case op < 8:
			v := rng.Uint64() % 4 // zeros are common: the absent-leaf no-op path
			c.m.Write(a, v)
			c.model[a] = v
		case op < 12:
			if got := c.m.Read(a); got != c.model[a] {
				t.Fatalf("op %d: Read(%#x) = %d, model %d", i, a, got, c.model[a])
			}
		case op == 12:
			held = append(held, memCase{c.m.Snapshot(), copyModel(c.model)})
		case op == 13 && len(held) > 1:
			// Retire a held member other than the current one and recycle it.
			j := rng.Intn(len(held))
			if j == cur {
				continue
			}
			held[j] = memCase{c.m.SnapshotInto(held[j].m), copyModel(c.model)}
		case op == 14:
			cur = rng.Intn(len(held)) // write to a sibling from now on
		case op == 15:
			checkDiff(t, c, held[rng.Intn(len(held))])
		case op == 16:
			c.check(t, "current")
		}
	}
	for j, c := range held {
		c.check(t, fmt.Sprintf("held member %d", j))
		checkDiff(t, c, held[0])
	}
}

func TestPageTableMemoryModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runMemoryModel(t, rng, memCase{New(), map[uint64]uint64{}}, 600)
	}
}

// ovCase is an Overlay paired with the plain map it must agree with.
type ovCase struct {
	o     *Overlay
	model map[uint64]uint64
}

// check compares Get, an OverlayReader, Len and Range with the model, and
// checks the table's shape; Range must visit ascending addresses.
func (c ovCase) check(t *testing.T, what string) {
	t.Helper()
	var r OverlayReader
	r.Init(c.o)
	for _, a := range tableAddrs {
		mv, mok := c.model[a]
		if v, ok := r.Get(a); ok != mok || v != mv {
			t.Fatalf("%s: reader Get(%#x) = %d,%v, model %d,%v", what, a, v, ok, mv, mok)
		}
		if v, ok := c.o.Get(a); ok != mok || v != mv {
			t.Fatalf("%s: Get(%#x) = %d,%v, model %d,%v", what, a, v, ok, mv, mok)
		}
	}
	if c.o.Len() != len(c.model) {
		t.Fatalf("%s: Len = %d, model %d", what, c.o.Len(), len(c.model))
	}
	if err := c.o.checkShape(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var got []uint64
	c.o.Range(func(a, v uint64) bool {
		if mv, ok := c.model[a]; !ok || mv != v {
			t.Fatalf("%s: Range visited %#x=%d, model %d,%v", what, a, v, mv, ok)
		}
		got = append(got, a)
		return true
	})
	sorted := sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(c.model) || !sorted {
		t.Fatalf("%s: Range visited %d words (ascending: %v), model %d", what, len(got), sorted, len(c.model))
	}
}

// runOverlayModel is runMemoryModel for overlays: Set, SetIfAbsent, Get,
// Snapshot, Reset, Range and OverlayReader against plain maps.
func runOverlayModel(t *testing.T, rng *rand.Rand, root ovCase, ops int) {
	held := []ovCase{root}
	cur := 0
	for i := 0; i < ops; i++ {
		c := held[cur]
		a := pickAddr(rng)
		switch op := rng.Intn(20); {
		case op < 6:
			v := rng.Uint64() % 4
			c.o.Set(a, v)
			c.model[a] = v
		case op < 9:
			v := rng.Uint64() % 4
			_, had := c.model[a]
			if got := c.o.SetIfAbsent(a, v); got == had {
				t.Fatalf("op %d: SetIfAbsent(%#x) = %v, model had %v", i, a, got, had)
			}
			if !had {
				c.model[a] = v
			}
		case op < 13:
			mv, mok := c.model[a]
			if v, ok := c.o.Get(a); ok != mok || v != mv {
				t.Fatalf("op %d: Get(%#x) = %d,%v, model %d,%v", i, a, v, ok, mv, mok)
			}
		case op == 13:
			held = append(held, ovCase{c.o.Snapshot(), copyModel(c.model)})
		case op == 14 && rng.Intn(3) == 0:
			c.o.Reset()
			clear(c.model)
		case op == 15:
			cur = rng.Intn(len(held))
		case op == 16:
			c.check(t, "current")
		case op == 17:
			held[rng.Intn(len(held))].check(t, "held member")
		}
	}
	for _, c := range held {
		c.check(t, "held member at end")
	}
}

func TestPageTableOverlayModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runOverlayModel(t, rng, ovCase{NewOverlay(), map[uint64]uint64{}}, 600)
	}
}

// TestPageTableFamilyModel runs the model tests on siblings of one family
// from different goroutines at once; under -race it checks that shared
// nodes are only ever read.
func TestPageTableFamilyModel(t *testing.T) {
	m, o := New(), NewOverlay()
	mm, om := map[uint64]uint64{}, map[uint64]uint64{}
	for i, a := range tableAddrs {
		m.Write(a, uint64(i+1))
		mm[a] = uint64(i + 1)
		o.Set(a, uint64(i))
		om[a] = uint64(i)
	}
	t.Run("siblings", func(t *testing.T) {
		for w := int64(0); w < 4; w++ {
			mc := memCase{m.Snapshot(), copyModel(mm)}
			oc := ovCase{o.Snapshot(), copyModel(om)}
			t.Run(fmt.Sprint(w), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(w))
				runMemoryModel(t, rng, mc, 400)
				runOverlayModel(t, rng, oc, 400)
			})
		}
	})
	memCase{m, mm}.check(t, "family root")
	ovCase{o, om}.check(t, "family root")
}

// fillLeaves returns a memory and an overlay with n leaves materialized
// from address 0 up.
func fillLeaves(n int) (*Memory, *Overlay) {
	m, o := New(), NewOverlay()
	for i := 0; i < n; i++ {
		a := uint64(i) * PageWords
		m.Write(a, a+1)
		o.Set(a, a+1)
	}
	return m, o
}

// A snapshot copies one pointer per dir, so its allocations must not depend
// on how many leaves the image holds.
func TestPageTableSnapshotAllocs(t *testing.T) {
	snapAllocs := func(n int) (mem, ov float64) {
		m, o := fillLeaves(n)
		if m.PageCount() != n {
			t.Fatalf("image holds %d leaves, want %d", m.PageCount(), n)
		}
		mem = testing.AllocsPerRun(50, func() { _ = m.Snapshot() })
		ov = testing.AllocsPerRun(50, func() { _ = o.Snapshot() })
		return mem, ov
	}
	sm, so := snapAllocs(16)
	lm, lo := snapAllocs(4096)
	if sm != lm {
		t.Errorf("Memory.Snapshot allocates %v for 16 leaves, %v for 4096", sm, lm)
	}
	if so != lo {
		t.Errorf("Overlay.Snapshot allocates %v for 16 leaves, %v for 4096", so, lo)
	}
}

// The first write after a snapshot copies one leaf and its path — at most
// one new node per level — however large the image is.
func TestPageTableWriteAllocs(t *testing.T) {
	m, o := fillLeaves(4096)
	addr := uint64(1000*PageWords + 5)

	snap := testing.AllocsPerRun(50, func() { _ = m.Snapshot() })
	write := testing.AllocsPerRun(50, func() {
		_ = m.Snapshot()
		m.Write(addr, 7)
	})
	if write-snap > 3 {
		t.Errorf("Memory write after Snapshot allocates %v nodes, want at most 3", write-snap)
	}
	snap = testing.AllocsPerRun(50, func() { _ = o.Snapshot() })
	write = testing.AllocsPerRun(50, func() {
		_ = o.Snapshot()
		o.Set(addr, 7)
	})
	if write-snap > 3 {
		t.Errorf("Overlay Set after Snapshot allocates %v nodes, want at most 3", write-snap)
	}

	// Structurally: the write replaces exactly the dir, mid and leaf on its
	// path, and shares every other node with the snapshot.
	s := m.Snapshot()
	before := m.nodes()
	m.Write(addr, 8)
	after := m.nodes()
	added := 0
	for n := range after {
		if !before[n] {
			added++
		}
	}
	if added != 3 || len(after) != len(before) {
		t.Errorf("write after Snapshot added %d nodes (%d -> %d reachable), want 3 replaced", added, len(before), len(after))
	}
	if s.Read(addr) != 7 || m.Read(addr) != 8 {
		t.Error("copy-on-write broke isolation")
	}
}
