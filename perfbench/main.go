// Command perfbench is the repository's end-to-end benchmark. It drives the
// MSSP system from outside, through the public functions of its packages,
// and measures one workload per invocation:
//
//	perfbench --workload seq|sim|par|chaos|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// splits the same operations into per-layer calls and lifecycle spans and
// reports the per-layer metrics. Every program run is checked against the
// reference table (reftable.go) and every chaos seed against its own
// differential. Human-readable lines come first; the last line of standard
// output is one JSON object. README.md describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// run carries one invocation's settings and accumulates its results.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	slaves   int

	values            map[string]float64
	lines             []string
	attempted, failed int
}

// set records a metric for the result line.
func (r *run) set(name string, v float64) { r.values[name] = v }

// logf adds a human-readable line to the report.
func (r *run) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and reports whether it succeeded.
// A failure is printed to standard error and counted.
func (r *run) check(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return false
	}
	return true
}

// workloadFuncs maps workload names to their runners.
var workloadFuncs = map[string]func(*run) error{
	"seq":   runSeq,
	"sim":   runSim,
	"par":   runPar,
	"chaos": runChaos,
}

// diagnosticWorkloads run on request but are not in BENCHMARK.json, so no
// bound gates them: seq's timings drift with the host and with the code
// layout of the binary by more than the bounds allow (README.md, Steadiness).
var diagnosticWorkloads = map[string]bool{"seq": true}

func main() {
	workload := flag.String("workload", "", "workload to run: chaos, par, seq, sim, or all of them one after another")
	seed := flag.Int64("seed", 1, "seed for the chaos programs and the program order")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	genRef := flag.Bool("gen-ref", false, "print reftable.go, computed with the slow reference interpreter, and exit")
	flag.Parse()

	if *genRef {
		src, err := referenceSource()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Print(src)
		return
	}
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	fn, ok := workloadFuncs[*workload]
	if (!ok && *workload != "all") || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s or all), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(names))
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, values: map[string]float64{}}
	start := time.Now()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	line, err := buildResult(r.traced, r.values, r.attempted, r.failed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d wall=%.1fs\n",
		r.workload, r.seed, r.seconds, *trace, time.Since(start).Seconds())
	fmt.Printf("provenance %s\n", newProvenance(r.slaves, r.seed))
	for _, l := range r.lines {
		fmt.Println(l)
	}
	printMetrics(line)
	fmt.Println(line)
}

// runAll runs every workload in its own process, one after another, so that
// each reports its own peak memory, and returns the exit status: 1 if any
// run failed.
func runAll(names []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, n := range names {
		args := []string{"--workload", n}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			status = 1
		}
	}
	return status
}

// printMetrics prints the result line's metrics one per line, by name with
// unit, in catalog order.
func printMetrics(line resultLine) {
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Printf("metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rate := 0.0
	if line.Attempted > 0 {
		rate = float64(line.Failed) / float64(line.Attempted)
	}
	fmt.Printf("metric %-40s %14.6g frac (%d of %d operations failed)\n", "error_rate", rate, line.Failed, line.Attempted)
}
