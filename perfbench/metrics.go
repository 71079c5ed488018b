package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
)

// metricDef is one entry of the metric catalog. BENCHMARK.json at the
// repository root lists the same names, units and directions; a test keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the untraced metrics. Every workload reports every one of
// them, so each is defined for program runs and chaos seeds alike (README.md
// has the definitions).
var endToEnd = []metricDef{
	{"ns_per_inst", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_alloc_mb", "MB", "lower", 0.15},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// simPrograms and parPrograms name the Ref programs the sim and par
// workloads run; the per-program layer metrics carry these as suffixes.
var (
	simPrograms = []string{"interp", "mtf", "hashtable", "graphwalk"}
	parPrograms = []string{"interp", "mtf", "hashtable"}
)

// coreSpans are the lifecycle-gap buckets of the deterministic machine, in
// report order (see gaps.go).
var coreSpans = []string{"exec", "verify", "fork", "fallback", "other"}

// perLayer lists the traced metrics. Every traced run reports all of them;
// a layer the workload does not run reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("trace.ns_per_inst", "ns", "lower")
	add("trace.untraced_ns_per_inst", "ns", "lower")
	add("trace.overhead_frac", "frac", "lower")

	add("workloads.build_ms", "ms", "lower")
	add("fuse.predecode_us", "us", "lower")
	add("state.new_ms", "ms", "lower")
	add("cpu.run_ns_per_inst", "ns", "lower")
	add("cpu.fused_ratio", "frac", "higher")
	add("mem.pages", "count", "lower")
	add("profile.collect_ms", "ms", "lower")
	add("distill.distill_ms", "ms", "lower")
	add("distill.master_ratio", "frac", "lower")

	add("core.new_ms", "ms", "lower")
	add("core.new_ns_per_inst", "ns", "lower")
	for _, s := range coreSpans {
		add("core."+s+"_ns_per_inst", "ns", "lower")
	}
	add("core.tasks", "count", "lower")
	add("core.squash_rate", "frac", "lower")
	add("core.insts_per_task", "count", "higher")
	add("core.ckpt_words_per_fork", "count", "lower")
	add("core.livein_words_per_task", "count", "lower")
	add("core.fallback_frac", "frac", "lower")
	for _, c := range []string{"master", "slave", "commit", "recovery"} {
		add("core.cyc_"+c+"_frac", "frac", "lower")
	}
	add("core.sim_speedup", "x", "higher")
	for _, p := range simPrograms {
		for _, s := range coreSpans[:4] {
			add("core."+s+"_ns_per_inst."+p, "ns", "lower")
		}
		add("core.sim_speedup."+p, "x", "higher")
	}

	for _, g := range []string{"fork_gap", "commit_gap", "fork_to_commit"} {
		add("parallel."+g+"_us_p50", "us", "lower")
		add("parallel."+g+"_us_tail", "us", "lower")
	}
	add("parallel.verify_commit_us_p50", "us", "lower")
	add("parallel.runahead", "count", "higher")
	add("parallel.ckpt_words_per_fork", "count", "lower")
	add("parallel.squash_rate", "frac", "lower")
	add("parallel.tasks", "count", "lower")
	add("parallel.goroutines", "count", "lower")
	add("parallel.speedup_vs_seq", "x", "higher")
	for _, p := range parPrograms {
		add("parallel.fork_gap_us_p50."+p, "us", "lower")
		add("parallel.commit_gap_us_p50."+p, "us", "lower")
		add("parallel.fork_to_commit_us_p50."+p, "us", "lower")
		add("parallel.speedup_vs_seq."+p, "x", "higher")
	}

	add("chaos.gen_us", "us", "lower")
	add("chaos.seed_ms_p50", "ms", "lower")
	add("chaos.seed_ms_tail", "ms", "lower")
	add("chaos.seq_steps_per_seed", "count", "lower")
	add("chaos.commits_per_seed", "count", "lower")
	add("chaos.model_checked_per_seed", "count", "lower")
	add("chaos.reasons_covered", "count", "higher")

	add("go.gc_cycles", "count", "lower")
	add("go.gc_cpu_frac", "frac", "lower")
	return out
}

// validName is the character set metric names are restricted to.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult renders values against the catalog of the run's mode:
// end-to-end untraced, per-layer traced. Values under the other mode's names
// are left out. Every end-to-end metric must have been measured; a layer
// metric the workload does not exercise reports 0. A value under a name in
// neither catalog is an error, so nothing uncatalogued is ever printed.
func buildResult(traced bool, values map[string]float64, attempted, failed int) (resultLine, error) {
	cat, other := endToEnd, perLayer
	if traced {
		cat, other = perLayer, endToEnd
	}
	line := resultLine{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	known := map[string]bool{}
	for _, m := range other {
		known[m.Name] = true
	}
	var missing []string
	for _, m := range cat {
		known[m.Name] = true
		v, ok := values[m.Name]
		if !ok && !traced {
			missing = append(missing, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %q is not a finite number", m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return line, fmt.Errorf("end-to-end metrics not measured: %s", strings.Join(missing, ", "))
	}
	for name := range values {
		if !known[name] {
			return line, fmt.Errorf("metric %q is not in the catalog", name)
		}
	}
	return line, nil
}

func (r resultLine) String() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only float64s, ints and strings: cannot fail
	}
	return string(b)
}
