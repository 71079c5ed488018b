// Package fuse implements the superinstruction fusion pass of the fast-path
// execution core (docs/PERFORMANCE.md).
//
// Fuse runs at predecode time: it scans a program's decoded instruction
// table for hot multi-instruction idioms — load+op, op+store, compare+branch
// and the addi-loop back-edge, ldi+op constant forms, and their triple
// combinations — and emits an isa.FusedInst table alongside the instruction
// table. The devirtualized interpreter loops (cpu.runConcrete and the slave
// fast path in internal/task) then retire a whole group per
// dispatch, eliminating the per-instruction fetch/dispatch overhead that
// dominates the predecoded interpreter's cost. Every group is a plain 2–3
// instruction in-order group, so one table shape serves the sequential
// core, the refinement replay, the slaves and the master alike.
//
// # Safety
//
// Executing a fused group is defined to be exactly the sequential execution
// of its components: every architectural write happens, in program order, so
// fusion alone never changes machine-visible behavior. The invariants that
// make this hold everywhere:
//
//   - Entries exist only at a group's first pc. Control entering at an
//     interior pc (a branch target, a task start) finds no entry and
//     executes singly.
//   - Components are straight-line register writers, with a conditional
//     branch or store allowed only as the final component. FORK, JAL, JALR,
//     HALT and NOP never fuse, so a RunToStop stop event can never occur
//     mid-group.
//   - Components must be canonical encodings (isa.Encode(Decode(w)) == w),
//     which makes the fused table bijective with the raw words — the
//     msspvet MV008 check.
//   - Task anchor pcs (Options.Anchors) never fall in a group's interior,
//     so a slave counting end-anchor crossings cannot step over one inside
//     a single dispatch. (The slave loop additionally guards dynamically;
//     correctness does not depend on the anchor set being complete.)
//   - Executors only take a fused dispatch when the remaining step budget
//     covers the whole group; otherwise the components execute singly, so a
//     budget can expire "mid-group" exactly as it would unfused.
package fuse

import "mssp/internal/isa"

// Options tunes the fusion pass.
type Options struct {
	// Anchors is the set of pcs that must not fall in a fused group's
	// interior: task start/end anchors, where a slave must be able to stop
	// between two instructions. The group's first pc may be an anchor (a
	// task starting there executes the group from its head). Nil is
	// allowed: no pcs are excluded.
	Anchors map[uint64]bool
}

// Predecode decodes p like isa.Predecode and attaches the superinstruction
// table the fusion pass builds. The result is immutable and shared exactly
// like a plain predecoded program.
func Predecode(p *isa.Program, opts Options) *isa.DecodedProgram {
	d := isa.Predecode(p)
	d.SetFused(build(d, opts))
	return d
}

// aluClass reports whether op is a straight-line register writer eligible as
// a non-final fused component: the three-register and register-immediate ALU
// groups plus the constant loads (OpAdd..OpLdih).
func aluClass(op isa.Op) bool { return op >= isa.OpAdd && op <= isa.OpLdih }

// build scans the decoded table and emits the fused-group table, or nil when
// no group matched.
func build(d *isa.DecodedProgram, opts Options) []isa.FusedInst {
	base, insts, valid, words := d.Table()
	n := len(insts)

	// canon[i]: the word re-encodes from its decoding, so a fused copy of
	// the component is bijective with the raw word (MV008).
	canon := func(i int) bool {
		return valid[i] && isa.Encode(insts[i]) == words[i]
	}
	// interior[i]: pc base+i may be a group interior (not a task anchor).
	interior := func(i int) bool { return !opts.Anchors[base+uint64(i)] }

	var fused []isa.FusedInst
	emit := func(i int, kind isa.FuseKind, size int) {
		if fused == nil {
			fused = make([]isa.FusedInst, n)
		}
		f := &fused[i]
		f.Kind = kind
		f.N = uint8(size)
		f.A, f.B = insts[i], insts[i+1]
		if size == 3 {
			f.C = insts[i+2]
		}
	}

	for i := 0; i < n; i++ {
		if !canon(i) {
			continue
		}
		// Component predicates for the window starting at i. A position
		// participates only if canonical and (for positions past the first)
		// not an anchor.
		ok := func(k int) bool { return i+k < n && canon(i+k) && (k == 0 || interior(i+k)) }
		alu := func(k int) bool { return ok(k) && aluClass(insts[i+k].Op) }
		br := func(k int) bool { return ok(k) && insts[i+k].Op.IsBranch() }
		ld := func(k int) bool { return ok(k) && insts[i+k].Op == isa.OpLd }
		st := func(k int) bool { return ok(k) && insts[i+k].Op == isa.OpSt }

		switch {
		case ld(0) && alu(1) && st(2):
			emit(i, isa.FuseLdAluSt, 3)
		case ld(0) && alu(1):
			emit(i, isa.FuseLdOp, 2)
		case alu(0) && alu(1) && br(2):
			emit(i, isa.FuseAluAluBr, 3)
		case alu(0) && br(1):
			emit(i, isa.FuseAluBr, 2)
		case alu(0) && st(1):
			emit(i, isa.FuseOpSt, 2)
		case alu(0) && alu(1):
			emit(i, isa.FuseAluAlu, 2)
		}
	}
	return fused
}

// Stat summarizes a fused table's static shape.
type Stat struct {
	// Groups is the number of slots carrying a fused entry.
	Groups int
	// Insts is the total component count over all groups (overlapping
	// groups count their shared instructions once per group).
	Insts int
	// ByKind counts groups per isa.FuseKind.
	ByKind map[isa.FuseKind]int
}

// Stats computes the static fusion statistics of a predecoded program.
func Stats(d *isa.DecodedProgram) Stat {
	st := Stat{ByKind: make(map[isa.FuseKind]int)}
	for i := range d.FusedTable() {
		f := &d.FusedTable()[i]
		if f.Kind == isa.FuseNone {
			continue
		}
		st.Groups++
		st.Insts += int(f.N)
		st.ByKind[f.Kind]++
	}
	return st
}
