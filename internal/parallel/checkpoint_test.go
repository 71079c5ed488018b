package parallel

import (
	"maps"
	"testing"

	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/profile"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// steppedMaster is the reference the parallel master's checkpoints are held
// to: the deterministic master's loop (internal/core runToFork), stepping
// the distilled program one instruction at a time through the Env interface
// and teeing every store into its write overlay.
type steppedMaster struct {
	code *cpu.Code
	st   *state.State
	env  teeEnv
	pol  core.ForkPolicy
	log  core.WriteLog
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

// TestStoreLogCheckpointEquivalence checks the parallel master's store-log
// checkpoints fork by fork: each one's anchor, crossing count, registers,
// memory diff and new-word count must equal what a stepped master that tees
// every store into its overlay holds at the same fork.
func TestStoreLogCheckpointEquivalence(t *testing.T) {
	const maxForks = 400
	names := []string{"interp", "mtf", "hashtable", "graphwalk", "compress", "treeins"}
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
			for _, full := range []bool{false, true} {
				cfg := core.DefaultConfig()
				cfg.MasterSuppliesAllData = full
				if forks, words := checkMasterCheckpoints(t, p, dist, cfg, maxForks); forks == 0 || words == 0 {
					t.Fatalf("compared %d forks carrying %d diff words; the leg checks nothing", forks, words)
				}
			}
		})
	}
}

// checkMasterCheckpoints compares up to maxForks checkpoints of one master
// life, returning how many it compared and the diff words they carried.
func checkMasterCheckpoints(t *testing.T, p *isa.Program, dist *distill.Result, cfg core.Config, maxForks int) (forks, words int) {
	t.Helper()
	e, err := newEngine(p, dist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := newEngine(p, dist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arch := e.r.Arch
	img := arch.Mem.Snapshot()
	img.CopyWords(dist.Prog.Code.Base, dist.Prog.Code.Words)
	ref := &steppedMaster{
		code: cpu.NewCode(isa.Predecode(dist.Prog)),
		st:   &state.State{Regs: arch.Regs, PC: dist.OrigToDist[arch.PC], Mem: img},
		log:  core.NewWriteLog(refEng.cfg),
	}
	ref.env = teeEnv{cpu.StateEnv{S: ref.st}, ref.log.Diff}
	var tally core.Metrics
	ref.pol = refEng.r.NewLife(&tally)

	e.Reseed()
	l := e.life
	if l == nil {
		t.Fatal("master did not start")
	}
	defer e.stopMaster()
	for ; forks < maxForks; forks++ {
		select {
		case fm := <-l.forkCh:
			anchor, count, ok := ref.next()
			if !ok {
				t.Fatalf("fork %d: parallel master forked at %d, stepped master ended", forks, fm.anchor)
			}
			want := ref.log.Checkpoint(ref.st.Regs, ref.st.Mem)
			if fm.anchor != anchor || fm.count != count {
				t.Fatalf("fork %d: anchor %d count %d, stepped %d count %d", forks, fm.anchor, fm.count, anchor, count)
			}
			if fm.ck.Regs != want.Regs {
				t.Fatalf("fork %d: registers differ\n got %v\nwant %v", forks, fm.ck.Regs, want.Regs)
			}
			if got, exp := overlayWords(fm.ck.MemDiff), overlayWords(want.MemDiff); !maps.Equal(got, exp) {
				t.Fatalf("fork %d: checkpoint diff has %d words, stepped overlay %d", forks, len(got), len(exp))
			}
			if fm.ck.NewDiffWords != want.NewDiffWords {
				t.Fatalf("fork %d: NewDiffWords %d, stepped %d", forks, fm.ck.NewDiffWords, want.NewDiffWords)
			}
			words += fm.ck.MemDiff.Len()
			if (fm.ck.FullMem != nil) != cfg.MasterSuppliesAllData ||
				(fm.ck.FullMem != nil && !fm.ck.FullMem.Equal(ref.st.Mem)) {
				t.Fatalf("fork %d: full-memory checkpoint differs from the stepped image", forks)
			}
		case <-l.exited:
			if _, _, ok := ref.next(); ok {
				t.Fatalf("parallel master ended after %d forks, stepped master forked again", forks)
			}
			return forks, words
		}
	}
	return forks, words
}
