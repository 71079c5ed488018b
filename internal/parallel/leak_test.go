package parallel_test

import (
	"runtime"
	"testing"
	"time"

	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/parallel"
)

// leakFaults is a fixed injection plan: wrong start PCs, dropped
// completions and forced fallbacks squash often enough that master lives
// are stopped mid-run, not only at halt.
func leakFaults() *core.FaultInjection {
	return &core.FaultInjection{
		CorruptStart: func(id, start uint64) uint64 {
			if id%7 == 3 {
				return start + 1
			}
			return start
		},
		DropCompletion: func(id uint64) bool { return id%5 == 2 },
		ForceFallback:  func(id uint64) bool { return id%11 == 6 },
	}
}

// TestRunLeavesNoGoroutines checks that parallel.Run, however it ends,
// leaves behind none of the goroutines it started: after a normal halt, a
// MaxCommitted abort and a fault-injected run, runtime.NumGoroutine() must
// return to its value before the run within a bounded wait.
func TestRunLeavesNoGoroutines(t *testing.T) {
	h := prep(t, fsrc(2048), 100, distill.DefaultOptions())
	cases := []struct {
		name    string
		cfg     func(*core.Config)
		wantErr bool
	}{
		{"halt", func(*core.Config) {}, false},
		{"max-committed", func(c *core.Config) { c.MaxCommitted = 5000 }, true},
		{"faults", func(c *core.Config) { c.Fault = leakFaults() }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Slaves = 3
			tc.cfg(&cfg)
			before := runtime.NumGoroutine()
			res, err := parallel.Run(h.orig, h.dist, cfg)
			if (err != nil) != tc.wantErr {
				t.Fatalf("parallel.Run error = %v, want error: %v", err, tc.wantErr)
			}
			if err == nil {
				assertEquivalent(t, h, res)
				if tc.name == "faults" && res.Metrics.Squashes == 0 {
					t.Fatal("the fault plan squashed nothing; no master life was stopped mid-run")
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the run, %d before\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
