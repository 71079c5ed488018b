package cpu_test

import (
	"fmt"
	"slices"
	"testing"

	"mssp/internal/chaos"
	"mssp/internal/cpu"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// storeLogEnv is the stepped reference for the store log: StateEnv with
// every memory write's address recorded in execution order.
type storeLogEnv struct {
	cpu.StateEnv
	log *[]uint64
}

func (e storeLogEnv) WriteMem(addr, v uint64) {
	*e.log = append(*e.log, addr)
	e.StateEnv.WriteMem(addr, v)
}

// storeTrace is everything the store-log comparison looks at.
type storeTrace struct {
	stores []uint64
	steps  uint64
	err    error
}

// steppedStores runs p on the slow Env interpreter, one instruction at a
// time, for at most max steps.
func steppedStores(p *isa.Program, max uint64) storeTrace {
	var tr storeTrace
	s := state.NewFromProgram(p, 1<<28)
	res, err := cpu.Run(storeLogEnv{cpu.StateEnv{S: s}, &tr.stores}, max)
	tr.steps, tr.err = res.Steps, err
	return tr
}

// loggedStores runs p through RunToStop in calls of at most chunk steps,
// resuming across fork and jalr stops, and concatenates the store logs.
func loggedStores(table *isa.DecodedProgram, p *isa.Program, max, chunk uint64) storeTrace {
	var tr storeTrace
	s := state.NewFromProgram(p, 1<<28)
	c := cpu.NewCode(table)
	for tr.steps < max {
		st, err := c.RunToStop(s, min(chunk, max-tr.steps))
		tr.steps += st.Steps
		tr.stores = append(tr.stores, c.Stores()...)
		if err != nil {
			tr.err = err
			break
		}
		if st.Kind == cpu.StopHalt {
			break
		}
	}
	return tr
}

// storeLogTables are the instruction tables a RunToStop runner may carry:
// none (fetch through memory), plain predecode, and fused.
var storeLogTables = []struct {
	name  string
	build func(p *isa.Program) *isa.DecodedProgram
}{
	{"slow", func(*isa.Program) *isa.DecodedProgram { return nil }},
	{"plain", isa.Predecode},
	{"fused", func(p *isa.Program) *isa.DecodedProgram { return fuse.Predecode(p, fuse.Options{}) }},
}

// TestStoreLogEquivalence holds RunToStop's store log to the stepped
// reference: on every table, at every chunk size, the logged addresses are
// exactly the addresses the slow interpreter stores to, in order. The small
// chunks cut fused groups, including ld+op+st triples, at every offset;
// the self-modifying programs cover runners that go dirty mid-run.
func TestStoreLogEquivalence(t *testing.T) {
	type prog struct {
		name   string
		p      *isa.Program
		max    uint64
		chunks []uint64
		quiet  bool // may legitimately execute no stores
	}
	cuts := []uint64{1, 2, 3, 4, 5, 7, 4096}
	progs := []prog{
		{"micro-mem", workloads.MicroMem(20), 10_000, cuts, false},
		{"micro-tight", workloads.MicroTight(20), 10_000, cuts, true},
		{"self-modifying", cpu.SelfModifyingProgram(t), 10_000, cuts, false},
		{"store-into-pair", cpu.StoreIntoPairProgram(t), 10_000, cuts, false},
		{"chain-selfmod", cpu.ChainSelfModifyProgram(t), 10_000, cuts, false},
		{"micro-mem-budget", workloads.MicroMem(20), 37, cuts, false}, // total budget ends mid-loop
	}
	for _, w := range workloads.All() {
		progs = append(progs, prog{"workload-" + w.Name, w.Build(workloads.Train), 50_000_000, []uint64{4096}, false})
	}
	// The chaos fuzz corpus seeds plus a run of small ones; some generated
	// programs store nothing, which the per-seed legs tolerate.
	seeds := []uint64{42, 4242, 99991, 1048576, 3735928559, 281474976710665}
	for s := uint64(0); s < 16; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		g := chaos.Generate(seed)
		progs = append(progs, prog{fmt.Sprintf("chaos-%d", seed), g.Prog, 5_000_000, []uint64{3, 4096}, true})
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			ref := steppedStores(pr.p, pr.max)
			for _, tab := range storeLogTables {
				table := tab.build(pr.p)
				for _, chunk := range pr.chunks {
					got := loggedStores(table, pr.p, pr.max, chunk)
					if got.steps != ref.steps || (got.err == nil) != (ref.err == nil) {
						t.Fatalf("%s chunk=%d: %d steps (err %v), stepped %d steps (err %v)",
							tab.name, chunk, got.steps, got.err, ref.steps, ref.err)
					}
					if !slices.Equal(got.stores, ref.stores) {
						i := 0
						for i < len(got.stores) && i < len(ref.stores) && got.stores[i] == ref.stores[i] {
							i++
						}
						t.Fatalf("%s chunk=%d: store logs diverge at store %d of %d logged / %d stepped",
							tab.name, chunk, i, len(got.stores), len(ref.stores))
					}
				}
			}
			if len(ref.stores) == 0 && !pr.quiet {
				t.Errorf("program executed no stores; the leg checks nothing")
			}
		})
	}
}
