package vet

import (
	"fmt"

	"mssp/internal/isa"
)

// CheckFused runs MV008 (fused-bijection) over a predecoded program's
// superinstruction table. Fused dispatch is *defined* as the in-order
// execution of each group's component instructions, so the table is only
// trustworthy if every component re-encodes, bit for bit, to the raw word
// at its slot: the fused program must be a pure re-grouping of the original,
// never a rewrite. The rule also checks the structural invariants the
// dispatchers rely on without re-validating — groups lie entirely on the
// code segment and cover only canonically-decodable slots. Overlapping
// entries are legal and deliberate (the builder emits a group at every
// matching position, so a jump landing inside one group's body can still
// dispatch the group headed there); the bijection makes the overlap safe,
// because every entry independently re-derives from the same raw words.
//
// A program with no fused table yields no findings: MV008 judges tables,
// not their absence.
func CheckFused(d *isa.DecodedProgram) []Finding {
	fused := d.FusedTable()
	if fused == nil {
		return nil
	}
	base, _, valid, words := d.Table()
	var out []Finding
	report := func(pc uint64, format string, args ...any) {
		out = append(out, Finding{Rule: "MV008", PC: pc, Msg: fmt.Sprintf(format, args...)})
	}
	for i := range fused {
		f := &fused[i]
		if f.Kind == isa.FuseNone {
			continue
		}
		pc := base + uint64(i)
		n := uint64(f.N)
		if n < 2 || n > 3 {
			report(pc, "%v group has width %d, want 2 or 3", f.Kind, n)
			continue
		}
		if uint64(i)+n > uint64(len(words)) {
			report(pc, "%v group of %d runs off the code segment", f.Kind, n)
			continue
		}
		for k, in := range components(f) {
			slot := uint64(i) + uint64(k)
			if !valid[slot] {
				report(pc, "%v component %d sits on an undecodable word", f.Kind, k)
				continue
			}
			if got, want := isa.Encode(in), words[slot]; got != want {
				report(pc, "%v component %d re-encodes to %#x, original word is %#x (%v)",
					f.Kind, k, got, want, in)
			}
		}
	}
	return out
}

// components returns a group's instructions in program order.
func components(f *isa.FusedInst) []isa.Inst {
	if f.N == 3 {
		return []isa.Inst{f.A, f.B, f.C}
	}
	return []isa.Inst{f.A, f.B}
}
