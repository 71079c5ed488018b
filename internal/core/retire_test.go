package core

import (
	"strings"
	"testing"

	"mssp/internal/distill"
	"mssp/internal/state"
	"mssp/internal/task"
)

// recordingEngine is a core.Engine stub: a tick clock that counts recovery
// calls.
type recordingEngine struct {
	tick              float64
	discards, reseeds int
}

func (e *recordingEngine) Clock(LifecycleEvent) float64 { e.tick++; return e.tick }
func (e *recordingEngine) Discard()                     { e.discards++ }
func (e *recordingEngine) Reseed()                      { e.reseeds++ }

// retireRig is a retire unit over a small program plus everything it
// reported.
type retireRig struct {
	r         *Retirer
	eng       *recordingEngine
	fault     *FaultInjection
	squashes  []string
	fallbacks int
}

func newRetireRig(t *testing.T) *retireRig {
	t.Helper()
	h := prep(t, fsrc(64), 100, distill.DefaultOptions())
	rig := &retireRig{eng: &recordingEngine{}, fault: &FaultInjection{}}
	cfg := DefaultConfig()
	cfg.Fault = rig.fault
	cfg.OnSquash = func(ev SquashEvent) { rig.squashes = append(rig.squashes, ev.Reason) }
	cfg.OnLifecycle = func(ev LifecycleEvent) {
		if ev.Kind == LifecycleFallbackEnter {
			rig.fallbacks++
		}
	}
	r, err := NewRetirer(h.orig, h.dist, cfg, rig.eng)
	if err != nil {
		t.Fatal(err)
	}
	rig.r = r
	return rig
}

// head returns a task at the architected PC whose execution reached its end
// with an empty live-in set: it commits unless a condition is applied.
func (rig *retireRig) head() *Flight {
	return &Flight{
		T:  &task.Task{ID: 3, Start: rig.r.Arch.PC},
		Ex: &task.Exec{Outcome: task.OutcomeReachedEnd, LiveIn: state.NewDelta(), LiveOut: state.NewDelta()},
	}
}

// precedence lists every squash reason, strongest first.
var precedence = []string{
	SquashDropped, SquashForced, SquashStartMismatch,
	SquashOverflow, SquashFault, SquashNonSpec, SquashLiveIn,
}

// squashCondition makes a head fail with the given reason when nothing
// stronger applies.
func squashCondition(rig *retireRig, f *Flight, reason string) {
	switch reason {
	case SquashDropped:
		rig.fault.DropCompletion = func(uint64) bool { return true }
	case SquashForced:
		rig.fault.ForceFallback = func(uint64) bool { return true }
	case SquashStartMismatch:
		f.T.Start = rig.r.Arch.PC + 1
	case SquashOverflow:
		f.Ex.Outcome = task.OutcomeOverflow
	case SquashFault:
		f.Ex.Outcome = task.OutcomeFault
	case SquashNonSpec:
		f.Ex.Outcome = task.OutcomeNonSpec
	case SquashLiveIn:
		f.Ex.LiveIn.SetReg(5, rig.r.Arch.Regs[5]+1)
	}
}

// taskCounters names the per-fate Metrics counters.
func taskCounters(m *Metrics) map[string]uint64 {
	return map[string]uint64{
		"committed":         m.TasksCommitted,
		SquashLiveIn:        m.TasksMisspec,
		SquashOverflow:      m.TasksOverflowed,
		SquashFault:         m.TasksFaulted,
		SquashStartMismatch: m.TasksStartMismatch,
		SquashNonSpec:       m.TasksNonSpec,
		SquashDropped:       m.TasksDropped,
		SquashForced:        m.TasksForced,
	}
}

// TestRetireSquashReasons drives the shared retire unit with one
// constructed head per squash reason: each must squash with exactly that
// reason, bump exactly its counter, run recovery once, and request
// sequential fallback only for forced and nonspec.
func TestRetireSquashReasons(t *testing.T) {
	all := AllSquashReasons()
	if len(all) != len(precedence) {
		t.Fatalf("precedence lists %d reasons, taxonomy has %d", len(precedence), len(all))
	}
	for _, reason := range all {
		t.Run(reason, func(t *testing.T) {
			rig := newRetireRig(t)
			f := rig.head()
			squashCondition(rig, f, reason)
			squashed, err := rig.r.Retire(f, 2)
			if err != nil || !squashed {
				t.Fatalf("Retire = %v, %v; want a squash", squashed, err)
			}
			if len(rig.squashes) != 1 || rig.squashes[0] != reason {
				t.Fatalf("squash reasons %v, want [%s]", rig.squashes, reason)
			}
			for name, n := range taskCounters(&rig.r.Metrics) {
				want := uint64(0)
				if name == reason {
					want = 1
				}
				if n != want {
					t.Errorf("counter %s = %d, want %d", name, n, want)
				}
			}
			if m := rig.r.Metrics; m.Squashes != 1 || m.TasksSquashedDown != 2 {
				t.Errorf("Squashes = %d, TasksSquashedDown = %d; want 1 and 2", m.Squashes, m.TasksSquashedDown)
			}
			if rig.eng.discards != 1 || (!rig.r.Done && rig.eng.reseeds != 1) {
				t.Errorf("engine discarded %d and reseeded %d times, want 1 each", rig.eng.discards, rig.eng.reseeds)
			}
			wantFallback := reason == SquashForced || reason == SquashNonSpec
			if (rig.fallbacks > 0) != wantFallback {
				t.Errorf("fallback entries = %d, want fallback %v", rig.fallbacks, wantFallback)
			}
		})
	}

	rig := newRetireRig(t)
	if squashed, err := rig.r.Retire(rig.head(), 0); err != nil || squashed {
		t.Fatalf("clean head: Retire = %v, %v; want a commit", squashed, err)
	}
	if n := rig.r.Metrics.TasksCommitted; n != 1 || rig.eng.discards != 0 {
		t.Fatalf("clean head: %d commits, %d discards; want 1 and 0", n, rig.eng.discards)
	}
}

// TestRetirePrecedence pins verify precedence pairwise: a head meeting two
// squash conditions squashes for the stronger one. Overflow, fault and
// nonspec are execution outcomes and cannot co-occur.
func TestRetirePrecedence(t *testing.T) {
	outcome := map[string]bool{SquashOverflow: true, SquashFault: true, SquashNonSpec: true}
	for i, strong := range precedence {
		for _, weak := range precedence[i+1:] {
			if outcome[strong] && outcome[weak] {
				continue
			}
			rig := newRetireRig(t)
			f := rig.head()
			squashCondition(rig, f, weak)
			squashCondition(rig, f, strong)
			if _, err := rig.r.Retire(f, 0); err != nil {
				t.Fatal(err)
			}
			if len(rig.squashes) != 1 || rig.squashes[0] != strong {
				t.Errorf("%s + %s: squash reasons %v, want [%s]", strong, weak, rig.squashes, strong)
			}
		}
	}
}

// TestRetireCanceledHeadIsProtocolError: a canceled execution at the head
// is an engine bug and must surface as an error even when an injected
// fault would otherwise squash it.
func TestRetireCanceledHeadIsProtocolError(t *testing.T) {
	rig := newRetireRig(t)
	f := rig.head()
	f.Ex.Outcome = task.OutcomeCanceled
	squashCondition(rig, f, SquashDropped)
	squashed, err := rig.r.Retire(f, 0)
	if err == nil || !strings.Contains(err.Error(), "canceled task") {
		t.Fatalf("Retire error = %v, want a canceled-task protocol error", err)
	}
	if squashed || len(rig.squashes) != 0 || rig.r.Metrics.TasksDropped != 0 || rig.eng.discards != 0 {
		t.Fatalf("canceled head was squashed (squashed=%v, reasons %v, dropped %d, discards %d)",
			squashed, rig.squashes, rig.r.Metrics.TasksDropped, rig.eng.discards)
	}
}
