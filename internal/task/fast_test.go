package task

import (
	"fmt"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/state"
)

// runBoth executes the same task once per path — fused (the production
// table, superinstruction dispatch included), plain predecoded (fused table
// stripped), and Env-stepping (no table) — and requires identical results.
// Returns the fused-path Exec.
func runBoth(t *testing.T, mk func() *Task, cap uint64) *Exec {
	t.Helper()
	fusedTask := mk()
	if fusedTask.Code == nil {
		t.Fatal("runBoth caller must set Code")
	}
	plainTask := mk()
	plainTask.Code.SetFused(nil)
	slowTask := mk()
	slowTask.Code = nil

	fused := fusedTask.Execute(cap)
	for _, leg := range []struct {
		name string
		ex   *Exec
	}{
		{"plain", plainTask.Execute(cap)},
		{"slow", slowTask.Execute(cap)},
	} {
		if fused.Outcome != leg.ex.Outcome || fused.Steps != leg.ex.Steps {
			t.Fatalf("fused %v/%d steps != %s %v/%d steps",
				fused.Outcome, fused.Steps, leg.name, leg.ex.Outcome, leg.ex.Steps)
		}
		if !fused.LiveIn.Equal(leg.ex.LiveIn) {
			t.Fatalf("live-in divergence:\nfused %s\n%s %s", fused.LiveIn, leg.name, leg.ex.LiveIn)
		}
		if !fused.LiveOut.Equal(leg.ex.LiveOut) {
			t.Fatalf("live-out divergence:\nfused %s\n%s %s", fused.LiveOut, leg.name, leg.ex.LiveOut)
		}
	}
	return fused
}

// mkCoded is mkTask plus a fused predecode table — deliberately built with
// no anchor set, so the task-end guards in dispatchFused carry the whole
// correctness burden (production tables additionally exclude known anchors
// from group interiors).
func mkCoded(t *testing.T, src string, start, end uint64, hasEnd bool) func() *Task {
	t.Helper()
	p := asm.MustAssemble(src)
	return func() *Task {
		arch := state.NewFromProgram(p, 1<<19)
		arch.PC = start
		return &Task{
			Start:  start,
			End:    end,
			HasEnd: hasEnd,
			Checkpoint: Checkpoint{
				Regs:    arch.Regs,
				MemDiff: mem.NewOverlay(),
			},
			Snap: arch.Clone(),
			Code: fuse.Predecode(p, fuse.Options{}),
		}
	}
}

func TestExecuteFastSlowEquivalence(t *testing.T) {
	t.Run("halt", func(t *testing.T) {
		ex := runBoth(t, mkCoded(t, sumSrc, 0, 0, false), 1000)
		if ex.Outcome != OutcomeHalted || ex.Steps != 17 {
			t.Errorf("got %v/%d, want halted/17", ex.Outcome, ex.Steps)
		}
	})
	t.Run("reached-end", func(t *testing.T) {
		mk := mkCoded(t, sumSrc, 1, 1, true)
		wrap := func() *Task {
			tk := mk()
			tk.Checkpoint.Regs[1] = 5
			tk.Snap.WriteReg(1, 5)
			return tk
		}
		if ex := runBoth(t, wrap, 1000); ex.Outcome != OutcomeReachedEnd || ex.Steps != 3 {
			t.Errorf("got %v/%d, want reached-end/3", ex.Outcome, ex.Steps)
		}
	})
	t.Run("end-count", func(t *testing.T) {
		mk := mkCoded(t, sumSrc, 1, 1, true)
		wrap := func() *Task {
			tk := mk()
			tk.EndCount = 2
			tk.Checkpoint.Regs[1] = 5
			tk.Snap.WriteReg(1, 5)
			return tk
		}
		if ex := runBoth(t, wrap, 1000); ex.Outcome != OutcomeReachedEnd || ex.Steps != 6 {
			t.Errorf("got %v/%d, want reached-end/6 (two iterations)", ex.Outcome, ex.Steps)
		}
	})
	t.Run("overflow", func(t *testing.T) {
		if ex := runBoth(t, mkCoded(t, "spin: j spin\nhalt", 0, 1, true), 50); ex.Outcome != OutcomeOverflow {
			t.Errorf("got %v, want overflow", ex.Outcome)
		}
	})
	t.Run("fault", func(t *testing.T) {
		mk := mkCoded(t, "halt", 0, 0, false)
		wrap := func() *Task {
			tk := mk()
			tk.Start = 999
			tk.Snap.Mem.Write(999, ^uint64(0))
			return tk
		}
		if ex := runBoth(t, wrap, 10); ex.Outcome != OutcomeFault {
			t.Errorf("got %v, want fault", ex.Outcome)
		}
	})
	t.Run("nonspec", func(t *testing.T) {
		src := `
			ldi r1, 700
			ld  r2, 0(r1)
			halt
		`
		mk := mkCoded(t, src, 0, 0, false)
		wrap := func() *Task {
			tk := mk()
			tk.NonSpec = []AddrRange{{Lo: 700, Hi: 710}}
			return tk
		}
		if ex := runBoth(t, wrap, 10); ex.Outcome != OutcomeNonSpec {
			t.Errorf("got %v, want nonspec", ex.Outcome)
		}
	})
	t.Run("livein-capture", func(t *testing.T) {
		src := `
			start:  add  r3, r1, r2
			        ldi  r1, 9
			        add  r4, r1, r1
			        ld   r5, 0(r6)
			        st   r5, 1(r6)
			        ld   r7, 1(r6)
			        halt
		`
		mk := mkCoded(t, src, 0, 0, false)
		wrap := func() *Task {
			tk := mk()
			tk.Checkpoint.Regs[1] = 10
			tk.Checkpoint.Regs[2] = 20
			tk.Checkpoint.Regs[6] = 100
			tk.Snap.Mem.Write(100, 77)
			return tk
		}
		ex := runBoth(t, wrap, 100)
		if v, ok := ex.LiveIn.MemVal(100); !ok || v != 77 {
			t.Errorf("live-in m100 = %d,%v, want 77", v, ok)
		}
	})
	t.Run("self-modifying-store", func(t *testing.T) {
		// A store into the predecoded range must drop the fast path without
		// changing semantics: slave fetches always come from the frozen
		// snapshot, so both paths still see the original instruction at the
		// stored-to address.
		p := &isa.Program{
			Entry: 0,
			Code: isa.Segment{Base: 0, Words: []uint64{
				isa.Encode(isa.Inst{Op: isa.OpLdi, Rd: 1, Imm: int64(isa.Encode(isa.Inst{Op: isa.OpLdi, Rd: 3, Imm: 42}))}),
				isa.Encode(isa.Inst{Op: isa.OpSt, Rs1: 0, Rs2: 1, Imm: 3}),
				isa.Encode(isa.Inst{Op: isa.OpNop}),
				isa.Encode(isa.Inst{Op: isa.OpHalt}),
			}},
		}
		mk := func() *Task {
			arch := state.NewFromProgram(p, 1<<19)
			return &Task{
				Start:      0,
				Checkpoint: Checkpoint{Regs: arch.Regs, MemDiff: mem.NewOverlay()},
				Snap:       arch.Clone(),
				Code:       fuse.Predecode(p, fuse.Options{}),
			}
		}
		if ex := runBoth(t, mk, 100); ex.Outcome != OutcomeHalted {
			t.Errorf("got %v, want halted", ex.Outcome)
		}
	})
}

// withSnapWord wraps a task builder so the task's architected snapshot holds
// word at addr while the predecoded table keeps the program's original
// instruction there. Slave fetches come from the table only until a store
// hits the code range and from the snapshot after it, so the mismatch makes
// the fetch source observable: a dispatcher that forgot to leave the table
// would execute the stale word.
func withSnapWord(mk func() *Task, addr uint64, in isa.Inst) func() *Task {
	return func() *Task {
		tk := mk()
		tk.Snap.Mem.Write(addr, isa.Encode(in))
		return tk
	}
}

// requireKind fails unless the task's fused table heads a group of kind k
// at pc, so a case meant to exercise one dispatcher arm cannot silently
// fall back to single-stepping.
func requireKind(t *testing.T, mk func() *Task, pc uint64, k isa.FuseKind) {
	t.Helper()
	if got := mk().Code.FusedTable()[pc].Kind; got != k {
		t.Fatalf("slot %d fused as %v, want %v", pc, got, k)
	}
}

// TestExecuteFusedGuards pins the slave dispatcher's guards one by one: a
// store into the code range as the final component of a group must drop the
// task off the predecoded table, and a task end inside a group's interior
// must stop the task there instead of being stepped over.
func TestExecuteFusedGuards(t *testing.T) {
	t.Run("op+st-store-into-code", func(t *testing.T) {
		src := `
			        nop
			        addi r3, r0, 4      ; 1: op+st head
			        st   r0, 0(r3)      ; 2: store into code[4]
			        nop
			        ldi  r5, 1          ; 4: snapshot holds "ldi r5, 2"
			        halt
		`
		mk := withSnapWord(mkCoded(t, src, 0, 0, false), 4, isa.Inst{Op: isa.OpLdi, Rd: 5, Imm: 2})
		requireKind(t, mk, 1, isa.FuseOpSt)
		ex := runBoth(t, mk, 100)
		if v, ok := ex.LiveOut.Reg(5); ex.Outcome != OutcomeHalted || !ok || v != 2 {
			t.Errorf("got %v, r5 = %d,%v; want halted with r5 = 2 from the snapshot", ex.Outcome, v, ok)
		}
	})
	t.Run("ld+op+st-store-into-code", func(t *testing.T) {
		// The read-modify-write loop of cpu's chainSelfModifyProgram: each
		// ld+op+st stores into the head of the alu+alu+br group after it.
		src := `
			        ldi  r8, 5
			        ldi  r1, 4
			loop:   ld   r4, 0(r8)      ; 2: ld+op+st head
			        addi r4, r4, 0
			        st   r4, 0(r8)      ; 4: store into code[5]
			        addi r9, r9, 1      ; 5: snapshot holds "addi r9, r9, 100"
			        addi r1, r1, -1
			        bnez r1, loop
			        halt
		`
		mk := withSnapWord(mkCoded(t, src, 0, 0, false), 5, isa.Inst{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 100})
		requireKind(t, mk, 2, isa.FuseLdAluSt)
		ex := runBoth(t, mk, 1000)
		if v, ok := ex.LiveOut.Reg(9); ex.Outcome != OutcomeHalted || !ok || v != 400 {
			t.Errorf("got %v, r9 = %d,%v; want halted with r9 = 400 from the snapshot", ex.Outcome, v, ok)
		}
	})
	// sumSrc fuses alu+alu+br at 1 and alu+br at 2, so an end at 3 lies in
	// the interior of both: the dispatcher must decline them and step the
	// addi singly to observe the crossing.
	for _, tc := range []struct {
		count, steps uint64
	}{{1, 3}, {2, 6}} {
		t.Run(fmt.Sprintf("end-in-interior-count-%d", tc.count), func(t *testing.T) {
			mk := mkCoded(t, sumSrc, 0, 3, true)
			requireKind(t, mk, 1, isa.FuseAluAluBr)
			requireKind(t, mk, 2, isa.FuseAluBr)
			wrap := func() *Task {
				tk := mk()
				tk.EndCount = tc.count
				return tk
			}
			if ex := runBoth(t, wrap, 1000); ex.Outcome != OutcomeReachedEnd || ex.Steps != tc.steps {
				t.Errorf("got %v/%d, want reached-end/%d", ex.Outcome, ex.Steps, tc.steps)
			}
		})
	}
}

// TestExecuteFusedBudgetSweep overflows the fused loop at every cap from 1
// up to past-halt: the budget must be able to expire at any offset inside a
// fused group (the dispatcher declines groups that do not fit and executes
// the tail singly) with step counts and live sets identical to the slow path.
func TestExecuteFusedBudgetSweep(t *testing.T) {
	for cap := uint64(1); cap <= 20; cap++ {
		runBoth(t, mkCoded(t, sumSrc, 0, 0, false), cap)
	}
}

// TestExecuteCancelFusedLoop pins cancel-poll liveness under fused
// dispatch: each alu+alu+br dispatch advances Steps by three, stepping over
// exact multiples of the poll period, so the poll must fire whenever Steps
// has reached the next boundary — Cancel still lands within roughly one
// poll period.
func TestExecuteCancelFusedLoop(t *testing.T) {
	src := `
	        ldi  r1, 1000000
	loop:   addi r2, r2, 1
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
	`
	tk := mkCoded(t, src, 0, 0, false)()
	calls := 0
	tk.Cancel = func() bool {
		calls++
		return calls > 2 // let a couple of poll periods run first
	}
	ex := tk.Execute(1 << 20)
	if ex.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %v, want canceled", ex.Outcome)
	}
	// Three polls at ~256-step boundaries, each overshooting by at most one
	// group: well under four periods.
	if ex.Steps == 0 || ex.Steps >= 4*256 {
		t.Fatalf("steps = %d, want within a few poll periods", ex.Steps)
	}
}

func TestExecuteCancel(t *testing.T) {
	for _, withCode := range []bool{true, false} {
		mk := mkCoded(t, "spin: j spin\nhalt", 0, 1, true)
		tk := mk()
		if !withCode {
			tk.Code = nil
		}
		calls := 0
		tk.Cancel = func() bool {
			calls++
			return calls > 2 // let a couple of poll periods run first
		}
		ex := tk.Execute(1 << 20)
		if ex.Outcome != OutcomeCanceled {
			t.Errorf("withCode=%v: outcome = %v, want canceled", withCode, ex.Outcome)
		}
		if ex.Steps == 0 || ex.Steps >= 1<<20 {
			t.Errorf("withCode=%v: steps = %d, want a few poll periods", withCode, ex.Steps)
		}
	}
}
