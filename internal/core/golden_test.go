package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"testing"

	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/predict"
	"mssp/internal/profile"
	"mssp/internal/state"
	"mssp/internal/task"
	"mssp/internal/workloads"
)

// machineGolden pins the deterministic machine's complete observable output
// — Metrics, Cycles, the final-state digest and the interleaved OnLifecycle,
// OnCommit and OnSquash streams — as one SHA-256 per (workload, config).
// The constants were recorded before the retire unit was shared with the
// parallel engine and must never be regenerated to make a refactor pass:
// a changed hash means a cycle stamp, an event order or a counter moved.
var machineGolden = map[string]string{
	"interp/default":         "22c9a29e4a112ca96c3749dc781313b5e5b729bdc29a9a1388c8c407532916f1",
	"interp/predict":         "22c9a29e4a112ca96c3749dc781313b5e5b729bdc29a9a1388c8c407532916f1",
	"interp/injected":        "0e08e4fd90e59020b01735903039d0abf4f6c6163e8b6fb625efe3afe75df632",
	"mtf/default":            "af4f6c53e84d15641a8e64ccbd5e7ab169a7a6592af08dc48e24b53e934cef7c",
	"mtf/predict":            "af4f6c53e84d15641a8e64ccbd5e7ab169a7a6592af08dc48e24b53e934cef7c",
	"mtf/injected":           "f915df0c54f39fe9fe129b45f1618c14c21b7d1c941bee994403fcf9061bc051",
	"hashtable/default":      "934e2e6e443856196354dde4f84abdec5b0b5992ada7a8cea5c29802019db711",
	"hashtable/predict":      "934e2e6e443856196354dde4f84abdec5b0b5992ada7a8cea5c29802019db711",
	"hashtable/injected":     "b9ede61db1e3fc64a90538928d64f5a21fcb194f874d0a446e4568b1a0088c80",
	"graphwalk/default":      "ef9d4853ee960262cb5fe33f7d42e1f4cdd46f99f5089018e1044827c7a97232",
	"graphwalk/predict":      "d28ad4164f8f27d9298e10867f2b9c66e04ed035a668f3fa6d939a6288981b54",
	"graphwalk/injected":     "6dea68bbe8e075c3e2f14489995213811c87022af5fed800d865ff085f57609e",
	"micro-predict/default":  "71a8cb749f418b234f80ec341a7d1b66503bd5bfa0c2d78a6c9507fee89b6490",
	"micro-predict/predict":  "c0ce8f0a79e9cdc8b555035945eb10a5eef42eab86b968019b8e775d2894310b",
	"micro-predict/injected": "3fdff3e6f4042e416a2491abba2cd6c5775eb91eae3cc00908f41ce28a8fed0b",
}

// goldenFaults is a fixed injection plan, independent of internal/chaos so
// the golden cannot drift with the fuzzer's plan. Its modular triggers
// reach both injected squash reasons on every pinned workload.
func goldenFaults() *core.FaultInjection {
	return &core.FaultInjection{
		CorruptStart: func(id, start uint64) uint64 {
			if id%23 == 7 {
				return start + 3
			}
			return start
		},
		CorruptCheckpoint: func(id uint64, ck *task.Checkpoint) {
			if id%19 == 4 {
				ck.Regs[1+id%(isa.NumRegs-1)] ^= 0x5a5a
			}
		},
		SlaveDelay:     func(id uint64) float64 { return float64(id % 5 * 37) },
		DropCompletion: func(id uint64) bool { return id%13 == 5 },
		ForceFallback:  func(id uint64) bool { return id%17 == 9 },
		VerifyJitter:   func(id uint64) float64 { return float64(id % 3 * 11) },
	}
}

// encodeDelta renders a delta's bindings in a canonical order.
func encodeDelta(d *state.Delta) string {
	if d == nil {
		return "nil"
	}
	var b strings.Builder
	for r := 0; r < isa.NumRegs; r++ {
		if v, ok := d.Reg(r); ok {
			fmt.Fprintf(&b, "r%d=%d,", r, v)
		}
	}
	if d.HasPC {
		fmt.Fprintf(&b, "pc=%d,", d.PC)
	}
	var addrs []uint64
	d.Mem.Range(func(a, _ uint64) bool { addrs = append(addrs, a); return true })
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		v, _ := d.MemVal(a)
		fmt.Fprintf(&b, "m%d=%d,", a, v)
	}
	return b.String()
}

// goldenRecorder hashes every event as one JSON line, in delivery order.
type goldenRecorder struct {
	h       hash.Hash
	reasons map[string]int
}

func (g *goldenRecorder) line(kind string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(g.h, "%s %s\n", kind, b)
}

func (g *goldenRecorder) attach(cfg *core.Config) {
	cfg.OnLifecycle = func(ev core.LifecycleEvent) { g.line("lifecycle", ev) }
	cfg.OnCommit = func(ev core.CommitEvent) {
		g.line("commit", map[string]any{
			"kind": ev.Kind, "task": ev.TaskID, "start": ev.Start, "steps": ev.Steps,
			"halted": ev.Halted, "livein": encodeDelta(ev.LiveIn), "liveout": encodeDelta(ev.LiveOut),
			"pc": ev.Arch.PC, "regs": ev.Arch.Regs,
		})
	}
	cfg.OnSquash = func(ev core.SquashEvent) {
		g.reasons[ev.Reason]++
		g.line("squash", map[string]any{
			"task": ev.TaskID, "start": ev.Start, "reason": ev.Reason, "inc": ev.Inconsistency,
			"discarded": ev.Discarded, "steps": ev.Steps, "livein": encodeDelta(ev.LiveIn),
		})
	}
}

// TestMachineGolden runs the deterministic machine on four Train-scale
// workloads under the default configuration, with a predictor attached, and
// under a fault plan, and compares each run's output hash against the
// constants above.
func TestMachineGolden(t *testing.T) {
	type program struct {
		name            string
		train, measured *isa.Program
	}
	var progs []program
	for _, name := range []string{"interp", "mtf", "hashtable", "graphwalk"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build(workloads.Train)
		progs = append(progs, program{name, p, p})
	}
	// The micro-program is the one whose predictions hit and whose fork
	// policy backs off, so consult, train and plan eligibility are pinned too.
	progs = append(progs, program{"micro-predict", workloads.MicroPredict(1_000, false), workloads.MicroPredict(10_000, true)})

	for _, pr := range progs {
		name, p := pr.name, pr.measured
		prof, err := profile.Collect(pr.train, profile.Options{Stride: 100})
		if err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		dopts := distill.DefaultOptions()
		dopts.PredictableSlots = true
		d, err := distill.Distill(pr.train, prof, dopts)
		if err != nil {
			t.Fatalf("%s: distill: %v", name, err)
		}
		for _, mode := range []string{"default", "predict", "injected"} {
			cfg := core.DefaultConfig()
			switch mode {
			case "predict":
				po := predict.DefaultOptions()
				po.PredictableRegs = d.PredictableRegs
				cfg.Predictor = predict.NewUnit(po)
			case "injected":
				cfg.Fault = goldenFaults()
			}
			g := &goldenRecorder{h: sha256.New(), reasons: map[string]int{}}
			g.attach(&cfg)
			m, err := core.New(p, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			fmt.Fprintf(g.h, "metrics %+v\ncycles %x\ndigest %x\n",
				res.Metrics, math.Float64bits(res.Cycles), res.Final.Digest())
			if mode == "injected" {
				for _, r := range core.InjectedSquashReasons {
					if g.reasons[r] == 0 {
						t.Errorf("%s/injected: plan never produced squash reason %q", name, r)
					}
				}
			}
			key, got := name+"/"+mode, hex.EncodeToString(g.h.Sum(nil))
			if got != machineGolden[key] {
				t.Errorf("%s: output hash %s, want %s", key, got, machineGolden[key])
			}
		}
	}
}
