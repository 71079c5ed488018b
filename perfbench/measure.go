package main

import (
	"time"
)

// opFunc runs one operation on a program and returns the instructions it
// committed. It returns an error when the run fails or its output disagrees
// with the reference.
type opFunc func(p *program) (insts uint64, err error)

// programSamples holds per-program samples of the measured phase.
type programSamples struct {
	nsPerInst, wallNs, allocMB map[string][]float64
	tracedNsPerInst            map[string][]float64
	// passes is the number of operations divided by the number of
	// programs: how many times the workload ran in full.
	passes          float64
	gcCycles, gcCPU float64
	names           []string
}

// measurePrograms runs the closed loop over progs. Untraced, each step runs
// plain on one program; traced, each step runs plain and traced on the same
// program, so the two are measured under the same conditions and their
// difference is the tracing overhead. Which of the two goes first alternates
// from program to program and from round to round, so neither always gets
// the warm second slot, and a traced run lasts at least tracedRounds rounds
// so every program runs in both orders.
func measurePrograms(r *run, progs []*program, plain, traced opFunc) *programSamples {
	ps := &programSamples{
		nsPerInst: map[string][]float64{}, wallNs: map[string][]float64{}, allocMB: map[string][]float64{},
		tracedNsPerInst: map[string][]float64{},
	}
	for _, p := range progs {
		ps.names = append(ps.names, p.name)
	}
	ops := 0
	rounds := minRounds
	if r.traced {
		rounds = tracedRounds
	}
	runPlain := func(p *program) {
		a0 := allocBytes()
		t0 := time.Now()
		insts, err := plain(p)
		wall := time.Since(t0)
		alloc := allocBytes() - a0
		ops++
		if r.check(err) {
			ps.nsPerInst[p.name] = append(ps.nsPerInst[p.name], float64(wall.Nanoseconds())/float64(insts))
			ps.wallNs[p.name] = append(ps.wallNs[p.name], float64(wall.Nanoseconds()))
			ps.allocMB[p.name] = append(ps.allocMB[p.name], mb(alloc))
		}
	}
	runTraced := func(p *program) {
		t0 := time.Now()
		insts, err := traced(p)
		wall := time.Since(t0)
		ops++
		if r.check(err) {
			ps.tracedNsPerInst[p.name] = append(ps.tracedNsPerInst[p.name], float64(wall.Nanoseconds())/float64(insts))
		}
	}
	gc0 := readGC()
	closedLoop(len(progs), r.seconds, rounds, func(round, i int) {
		p := progs[i]
		switch {
		case !r.traced:
			runPlain(p)
		case (round+i)%2 == 0:
			runPlain(p)
			runTraced(p)
		default:
			runTraced(p)
			runPlain(p)
		}
	})
	ps.gcCycles, ps.gcCPU = gcSince(gc0)
	ps.passes = float64(ops) / float64(len(progs))
	return ps
}

// report sets the metrics every program workload shares.
func (ps *programSamples) report(r *run, st setupStats) {
	nsPerInst := geomean(perProgram(ps.names, ps.nsPerInst, median))
	for _, n := range ps.names {
		r.logf("program %-10s runs=%d ns_per_inst=%.3f wall_ms=%.1f heap_alloc_mb=%.2f",
			n, len(ps.nsPerInst[n]), median(ps.nsPerInst[n]), median(ps.wallNs[n])/1e6, median(ps.allocMB[n]))
	}
	r.set("ns_per_inst", nsPerInst)
	r.set("setup_s", median(st.total))
	r.set("heap_alloc_mb", sumMedians(ps.names, ps.allocMB))
	r.set("max_rss_mb", maxRSSMB())
	if pass := sumMedians(ps.names, ps.wallNs) / 1e9; pass > 0 {
		r.set("ops_per_s", float64(len(ps.names))/pass)
	}

	r.set("workloads.build_ms", sumMedians(ps.names, st.buildMs))
	r.set("go.gc_cycles", ps.gcCycles/ps.passes)
	r.set("go.gc_cpu_frac", ps.gcCPU)
	if r.traced {
		reportOverhead(r, geomean(perProgram(ps.names, ps.tracedNsPerInst, median)), nsPerInst)
	}
}

// reportOverhead sets the traced and untraced ns_per_inst of a traced run
// and the tracing overhead, their ratio less one.
func reportOverhead(r *run, traced, untraced float64) {
	r.set("trace.ns_per_inst", traced)
	r.set("trace.untraced_ns_per_inst", untraced)
	if untraced > 0 {
		r.set("trace.overhead_frac", traced/untraced-1)
	}
	r.logf("trace ns_per_inst traced=%.3f untraced=%.3f", traced, untraced)
}
