package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"mssp/internal/core"
	"mssp/internal/workloads"
)

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 100}, 10},
		{[]float64{2, 8, 4}, 4},
		{[]float64{3, 0}, 0},
		{[]float64{3, -1}, 0},
	} {
		if got := geomean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the rule must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n       int
		ok      bool
		pct     float64
		value   float64
		beyond  int
		comment string
	}{
		{19, false, 0, 0, 0, "p50 of 19 leaves 9 beyond"},
		{20, true, 50, 10, 10, "p50 leaves exactly 10"},
		{100, true, 90, 90, 10, "p95 leaves 5, p90 leaves 10"},
		{1000, true, 99, 990, 10, "p99 of 1000"},
		{1009, true, 99, 999, 10, "ceil(0.99*1009) = 999"},
		{20000, true, 99.9, 19980, 20, "p99.99 leaves 2"},
	} {
		got, ok := tailPercentile(seq(c.n))
		if ok != c.ok {
			t.Errorf("n=%d: ok = %v, want %v (%s)", c.n, ok, c.ok, c.comment)
			continue
		}
		if !ok {
			continue
		}
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g value %g with %d beyond (%s)", c.n, got, c.pct, c.value, c.beyond, c.comment)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, got.Beyond)
		}
	}
}

// TestGapAttribution replays a synthetic lifecycle sequence: each gap goes
// to the kind of the event that closes it, the tail goes to "other", and
// the buckets add up to the wall time.
func TestGapAttribution(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(usec int) time.Time { return t0.Add(time.Duration(usec) * time.Microsecond) }
	var g gapClock
	g.start(t0)
	for _, e := range []struct {
		kind string
		at   int
	}{
		{core.LifecycleFork, 10},          // fork +10
		{core.LifecyclePredict, 12},       // fork +2
		{core.LifecycleDispatch, 40},      // exec +28
		{core.LifecycleVerify, 41},        // verify +1
		{core.LifecycleCommit, 45},        // verify +4
		{core.LifecycleDispatch, 70},      // exec +25
		{core.LifecycleVerify, 71},        // verify +1
		{core.LifecycleSquash, 73},        // verify +2
		{core.LifecycleFallbackEnter, 74}, // fallback +1
		{core.LifecycleFallbackExit, 174}, // fallback +100
		{core.LifecyclePolicy, 175},       // fork +1
	} {
		g.event(e.kind, at(e.at))
	}
	g.finish(at(180)) // other +5

	want := map[int]time.Duration{
		spanFork:     13 * time.Microsecond,
		spanExec:     53 * time.Microsecond,
		spanVerify:   8 * time.Microsecond,
		spanFallback: 101 * time.Microsecond,
		spanOther:    5 * time.Microsecond,
	}
	for i, w := range want {
		if g.spans[i] != w {
			t.Errorf("%s span = %v, want %v", coreSpans[i], g.spans[i], w)
		}
	}
	if g.total() != 180*time.Microsecond {
		t.Errorf("spans add up to %v, want the 180µs wall time", g.total())
	}
}

func TestParClock(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := newParClock()
	// Two runs of the same event sequence, the second 1 ms later: no gap
	// may span the two runs.
	for _, base := range []int{0, 1000} {
		at := func(usec int) time.Time { return t0.Add(time.Duration(base+usec) * time.Microsecond) }
		c.begin()
		c.event(core.LifecycleEvent{Kind: core.LifecycleFork, TaskID: 1}, at(0))
		c.event(core.LifecycleEvent{Kind: core.LifecycleFork, TaskID: 2}, at(10))
		c.event(core.LifecycleEvent{Kind: core.LifecycleVerify, TaskID: 1}, at(20))
		c.event(core.LifecycleEvent{Kind: core.LifecycleCommit, TaskID: 1}, at(23))
		c.event(core.LifecycleEvent{Kind: core.LifecycleVerify, TaskID: 2}, at(30))
		c.event(core.LifecycleEvent{Kind: core.LifecycleSquash, TaskID: 2}, at(31))
		c.event(core.LifecycleEvent{Kind: core.LifecycleFork, TaskID: 3}, at(40))
		c.event(core.LifecycleEvent{Kind: core.LifecycleVerify, TaskID: 3}, at(50))
		c.event(core.LifecycleEvent{Kind: core.LifecycleCommit, TaskID: 3}, at(52))
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"fork gaps", c.forkGaps, []float64{10, 30, 10, 30}},
		{"commit gaps", c.commitGaps, []float64{29, 29}},
		{"fork to commit", c.forkToCommit, []float64{23, 12, 23, 12}},
		{"verify to commit", c.verifyToCommit, []float64{3, 2, 3, 2}},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
				break
			}
		}
	}
}

// TestWrongDigestIsAFailure corrupts one reference entry and checks that the
// run counts the program's operations as failed and the result as incorrect.
func TestWrongDigestIsAFailure(t *testing.T) {
	saved := reference["matmul"]
	reference["matmul"] = refEntry{Digest: saved.Digest ^ 1, Steps: saved.Steps}
	t.Cleanup(func() { reference["matmul"] = saved })

	progs, _, err := setupPrograms([]string{"matmul"}, false)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{workload: "seq", seconds: 0.001, values: map[string]float64{}}
	measurePrograms(r, progs, runBaseline, nil)
	if r.attempted == 0 || r.failed != r.attempted {
		t.Fatalf("attempted %d, failed %d: want every operation failed", r.attempted, r.failed)
	}
	line, err := buildResult(false, map[string]float64{
		"ns_per_inst": 1, "setup_s": 1, "heap_alloc_mb": 1, "max_rss_mb": 1, "ops_per_s": 1,
	}, r.attempted, r.failed)
	if err != nil {
		t.Fatal(err)
	}
	if line.Correct {
		t.Error("result reads correct with failed operations")
	}

	reference["matmul"] = saved
	r = &run{workload: "seq", seconds: 0.001, values: map[string]float64{}}
	measurePrograms(r, progs, runBaseline, nil)
	if r.failed != 0 {
		t.Errorf("%d of %d operations failed with the true reference", r.failed, r.attempted)
	}
}

func TestBuildResult(t *testing.T) {
	all := map[string]float64{}
	for _, m := range endToEnd {
		all[m.Name] = 1
	}
	if _, err := buildResult(false, all, 1, 0); err != nil {
		t.Errorf("complete end-to-end result: %v", err)
	}
	delete(all, "setup_s")
	if _, err := buildResult(false, all, 1, 0); err == nil {
		t.Error("missing end-to-end metric accepted")
	}
	if _, err := buildResult(true, map[string]float64{"no.such_metric": 1}, 1, 0); err == nil {
		t.Error("uncatalogued metric accepted")
	}
	if _, err := buildResult(true, map[string]float64{"cpu.run_ns_per_inst": math.NaN()}, 1, 0); err == nil {
		t.Error("NaN metric accepted")
	}
	line, err := buildResult(true, map[string]float64{"cpu.run_ns_per_inst": 7, "ns_per_inst": 9}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("traced result has %d metrics, want all %d per-layer metrics", len(line.Metrics), len(perLayer))
	}
	if _, ok := line.Metrics["ns_per_inst"]; ok {
		t.Error("traced result carries an end-to-end metric")
	}
}

// TestCatalogMatchesBenchmarkJSON checks that every metric the benchmark can
// print is declared in BENCHMARK.json with the same unit and direction, and
// that the names and units stay inside the allowed character sets.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, code, declared []metricDef) {
		if len(code) != len(declared) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(code), len(declared))
		}
		for i := 0; i < len(code) && i < len(declared); i++ {
			if code[i] != declared[i] {
				t.Errorf("%s[%d]: catalog %+v, BENCHMARK.json %+v", kind, i, code[i], declared[i])
			}
		}
		for _, m := range code {
			if !validName.MatchString(m.Name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q not allowed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	compare("end_to_end", endToEnd, bj.EndToEnd)
	compare("per_layer", perLayer, bj.PerLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	listed := map[string]bool{}
	for _, w := range bj.Workloads {
		listed[w.Name] = true
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		if diagnosticWorkloads[w.Name] {
			t.Errorf("BENCHMARK.json lists the diagnostic workload %q", w.Name)
		}
	}
	for name := range workloadFuncs {
		if !listed[name] && !diagnosticWorkloads[name] {
			t.Errorf("workload %q is neither in BENCHMARK.json nor a diagnostic workload", name)
		}
	}
}

// TestReferenceTable recomputes the reference table with the slow
// interpreter; run `go run . -gen-ref > reftable.go` when it fails after an
// intended workload change.
func TestReferenceTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Ref program on the slow interpreter")
	}
	for _, name := range workloads.Names() {
		got, err := slowReference(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != reference[name] {
			t.Errorf("%s: slow interpreter gives %+v, table has %+v", name, got, reference[name])
		}
	}
	if len(reference) != len(workloads.Names()) {
		t.Errorf("table has %d entries, there are %d workloads", len(reference), len(workloads.Names()))
	}
}
