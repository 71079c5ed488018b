package core

import (
	"maps"
	"testing"

	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/profile"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// steppedMaster is the reference Master's checkpoints are held to: it steps
// the distilled program one instruction at a time through the Env interface
// and tees every store into its write overlay.
type steppedMaster struct {
	code *cpu.Code
	st   *state.State
	env  teeEnv
	pol  forkPolicy
	log  writeLog
}

type teeEnv struct {
	cpu.StateEnv
	diff *mem.Overlay
}

func (e teeEnv) WriteMem(addr, v uint64) {
	e.StateEnv.WriteMem(addr, v)
	e.diff.Set(addr, v)
}

// next runs to the next taken fork, reporting false when the master halts
// or gets lost.
func (m *steppedMaster) next() (anchor, count uint64, ok bool) {
	for {
		in, err := m.code.Step(m.env)
		if err != nil {
			return 0, 0, false
		}
		m.pol.Ran(1)
		switch in.Op {
		case isa.OpHalt:
			return 0, 0, false
		case isa.OpFork:
			if c, take := m.pol.Fork(uint64(in.Imm)); take {
				return uint64(in.Imm), c, true
			}
		case isa.OpJalr:
			pc, ok := m.pol.Jump(m.st.PC)
			if !ok {
				return 0, 0, false
			}
			m.st.PC = pc
		}
		if m.pol.Lost() {
			return 0, 0, false
		}
	}
}

func overlayWords(o *mem.Overlay) map[uint64]uint64 {
	words := make(map[uint64]uint64)
	o.Range(func(a, v uint64) bool {
		words[a] = v
		return true
	})
	return words
}

// TestStoreLogCheckpointEquivalence checks Master's store-log checkpoints
// fork by fork: each one's anchor, crossing count, registers, memory diff,
// new-word count and master instruction count must equal what a stepped
// master that tees every store into its overlay holds at the same fork, and
// both must end the life after the same instruction count. The legs cover
// the fused table, the plain table (DisableFusion), the nil table
// (DisableFastPath), full-memory checkpoints, and a run-ahead cap one
// instruction past MinTaskSpacing, under which the master goes lost.
func TestStoreLogCheckpointEquivalence(t *testing.T) {
	const maxForks = 400
	names := []string{"interp", "mtf", "hashtable", "graphwalk", "compress", "treeins"}
	legs := []struct {
		name string
		set  func(*Config)
	}{
		{"fused", func(*Config) {}},
		{"all-data", func(c *Config) { c.MasterSuppliesAllData = true }},
		{"unfused", func(c *Config) { c.DisableFusion = true }},
		{"no-fastpath", func(c *Config) { c.DisableFastPath = true }},
		{"lost", func(c *Config) { c.MasterRunaheadCap = c.MinTaskSpacing + 1 }},
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := w.Build(workloads.Train)
			prof, err := profile.Collect(p, profile.Options{Stride: 100})
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			dist, err := distill.Distill(p, prof, distill.DefaultOptions())
			if err != nil {
				t.Fatalf("distill: %v", err)
			}
			for _, leg := range legs {
				cfg := DefaultConfig()
				leg.set(&cfg)
				forks, words, lost := checkMasterCheckpoints(t, p, dist, cfg, maxForks)
				if leg.name == "lost" {
					if !lost {
						t.Fatalf("lost: the master never went lost after %d forks; the leg checks nothing", forks)
					}
				} else if forks == 0 || words == 0 {
					t.Fatalf("%s: compared %d forks carrying %d diff words; the leg checks nothing", leg.name, forks, words)
				}
			}
		})
	}
}

// masterTestChunk is the instruction budget of each Master.Run call under
// test: far below a typical task, so most forks are reached across several
// calls that each stop with MasterMax.
const masterTestChunk = 61

// checkMasterCheckpoints compares up to maxForks checkpoints of one master
// life, returning how many it compared, the diff words they carried and
// whether the life ended lost.
func checkMasterCheckpoints(t *testing.T, p *isa.Program, dist *distill.Result, cfg Config, maxForks int) (forks, words int, lost bool) {
	t.Helper()
	m, err := New(p, dist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arch := m.r.Arch
	img := arch.Mem.Snapshot()
	img.CopyWords(dist.Prog.Code.Base, dist.Prog.Code.Words)
	var tally Metrics
	ref := &steppedMaster{
		code: cpu.NewCode(isa.Predecode(dist.Prog)),
		st:   &state.State{Regs: arch.Regs, PC: dist.OrigToDist[arch.PC], Mem: img},
		pol:  newForkPolicy(m.cfg, dist, nil, &tally),
		log:  newWriteLog(m.cfg),
	}
	ref.env = teeEnv{cpu.StateEnv{S: ref.st}, ref.log.diff}

	master := m.r.NewMaster(&m.r.Metrics)
	if master == nil {
		t.Fatal("master did not start")
	}
	for ; forks < maxForks; forks++ {
		stop, _, anchor, count := master.Run(masterTestChunk)
		for stop == MasterMax {
			stop, _, anchor, count = master.Run(masterTestChunk)
		}
		if stop != MasterForked {
			if _, _, ok := ref.next(); ok {
				t.Fatalf("master ended after %d forks, stepped master forked again", forks)
			}
			if got := m.r.Metrics.MasterInsts; got != tally.MasterInsts {
				t.Fatalf("life ended after %d instructions, stepped %d", got, tally.MasterInsts)
			}
			return forks, words, stop == MasterLost
		}
		wantAnchor, wantCount, ok := ref.next()
		if !ok {
			t.Fatalf("fork %d: master forked at %d, stepped master ended", forks, anchor)
		}
		ck, want := master.Checkpoint(), ref.log.checkpoint(ref.st.Regs, ref.st.Mem)
		if anchor != wantAnchor || count != wantCount {
			t.Fatalf("fork %d: anchor %d count %d, stepped %d count %d", forks, anchor, count, wantAnchor, wantCount)
		}
		if got := m.r.Metrics.MasterInsts; got != tally.MasterInsts {
			t.Fatalf("fork %d: master ran %d instructions, stepped %d", forks, got, tally.MasterInsts)
		}
		if ck.Regs != want.Regs {
			t.Fatalf("fork %d: registers differ\n got %v\nwant %v", forks, ck.Regs, want.Regs)
		}
		if got, exp := overlayWords(ck.MemDiff), overlayWords(want.MemDiff); !maps.Equal(got, exp) {
			t.Fatalf("fork %d: checkpoint diff has %d words, stepped overlay %d", forks, len(got), len(exp))
		}
		if ck.NewDiffWords != want.NewDiffWords {
			t.Fatalf("fork %d: NewDiffWords %d, stepped %d", forks, ck.NewDiffWords, want.NewDiffWords)
		}
		words += ck.MemDiff.Len()
		if (ck.FullMem != nil) != cfg.MasterSuppliesAllData ||
			(ck.FullMem != nil && !ck.FullMem.Equal(ref.st.Mem)) {
			t.Fatalf("fork %d: full-memory checkpoint differs from the stepped image", forks)
		}
	}
	return forks, words, false
}
