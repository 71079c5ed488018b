package vet

import (
	"strings"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/fuse"
	"mssp/internal/isa"
)

// fusedProg builds a program whose table carries several group kinds
// (alu+alu, alu+alu+br) so the bijection sweep has real entries.
func fusedProg(t *testing.T) *isa.Program {
	t.Helper()
	return asm.MustAssemble(`
		main:   ldi  r1, 10
		loop:   addi r2, r2, 3
		        addi r1, r1, -1
		        bnez r1, loop
		        halt
	`)
}

func TestCheckFusedCleanTable(t *testing.T) {
	d := fuse.Predecode(fusedProg(t), fuse.Options{})
	if st := fuse.Stats(d); st.Groups == 0 {
		t.Fatal("test program fused no groups; the check would be vacuous")
	}
	if fs := CheckFused(d); len(fs) != 0 {
		t.Fatalf("clean fused table produced findings: %v", fs)
	}
	if fs := CheckFused(isa.Predecode(fusedProg(t))); fs != nil {
		t.Fatalf("absent fused table produced findings: %v", fs)
	}
}

// corrupt rebuilds the program's fused table with one entry mutated, the
// way a fusion-pass bug would: the table claims a component the raw words
// do not contain.
func corrupt(t *testing.T, mutate func(fused []isa.FusedInst, base uint64)) []Finding {
	t.Helper()
	d := fuse.Predecode(fusedProg(t), fuse.Options{})
	orig := d.FusedTable()
	if orig == nil {
		t.Fatal("no fused table to corrupt")
	}
	fused := make([]isa.FusedInst, len(orig))
	copy(fused, orig)
	base, _, _, _ := d.Table()
	mutate(fused, base)
	d.SetFused(fused)
	return CheckFused(d)
}

func TestCheckFusedReportsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(fused []isa.FusedInst, base uint64)
		want   string
	}{
		{"component-rewritten", func(fused []isa.FusedInst, base uint64) {
			for i := range fused {
				if fused[i].Kind != isa.FuseNone {
					fused[i].A.Imm++ // no longer re-encodes to words[i]
					return
				}
			}
		}, "re-encodes to"},
		{"bad-width", func(fused []isa.FusedInst, base uint64) {
			for i := range fused {
				if fused[i].Kind != isa.FuseNone {
					fused[i].N = 1
					return
				}
			}
		}, "want 2 or 3"},
		{"off-segment", func(fused []isa.FusedInst, base uint64) {
			last := len(fused) - 1
			fused[last] = isa.FusedInst{Kind: isa.FuseAluAlu, N: 2}
		}, "runs off the code segment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := corrupt(t, tc.mutate)
			if len(fs) == 0 {
				t.Fatal("corrupted table produced no MV008 findings")
			}
			for _, f := range fs {
				if f.Rule != "MV008" {
					t.Errorf("unexpected rule %s: %v", f.Rule, f)
				}
			}
			if !strings.Contains(fs[0].Msg, tc.want) {
				t.Errorf("finding %q does not mention %q", fs[0].Msg, tc.want)
			}
		})
	}
}
