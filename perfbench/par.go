package main

import (
	"time"

	"mssp/internal/core"
	"mssp/internal/parallel"
)

// parSlaves is the slave count of the par workload, the ROADMAP's
// speedup_g2 configuration.
const parSlaves = 2

// seqReps is how many production sequential runs per program the traced
// par run times for parallel.speedup_vs_seq.
const seqReps = 3

// runPar measures the true-parallel engine, parallel.Run with two slaves,
// on Ref programs distilled from their Train builds.
func runPar(r *run) error {
	names := shuffled(parPrograms, r.seed)
	progs, st, err := setupPrograms(names, true)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Slaves = parSlaves
	r.slaves = parSlaves
	metrics := map[string]core.Metrics{}
	goroutines := map[string]float64{}
	clocks := map[string]*parClock{}
	plain := func(p *program) (uint64, error) {
		res, err := parallel.Run(p.ref, p.dist, cfg)
		if err != nil {
			return 0, err
		}
		metrics[p.name] = res.Metrics
		goroutines[p.name] = float64(res.Goroutines)
		return res.Metrics.CommittedInsts, checkRef(reference, p.name, res.Final.Digest(), res.Metrics.CommittedInsts)
	}
	traced := func(p *program) (uint64, error) {
		c := clocks[p.name]
		if c == nil {
			c = newParClock()
			clocks[p.name] = c
		}
		c.begin()
		tcfg := cfg
		tcfg.OnLifecycle = func(ev core.LifecycleEvent) { c.event(ev, time.Now()) }
		res, err := parallel.Run(p.ref, p.dist, tcfg)
		if err != nil {
			return 0, err
		}
		return res.Metrics.CommittedInsts, checkRef(reference, p.name, res.Final.Digest(), res.Metrics.CommittedInsts)
	}
	ps := measurePrograms(r, progs, plain, traced)
	ps.report(r, st)
	reportDistill(r, ps.names, st, metrics)

	var runahead, ckpt, squash, tasks, gor []float64
	for _, n := range ps.names {
		m := metrics[n]
		runahead = append(runahead, ratio(m.RunaheadSum, m.Forks))
		ckpt = append(ckpt, ratio(m.CheckpointNew, m.Forks))
		squash = append(squash, ratio(m.Squashes, m.Forks))
		tasks = append(tasks, float64(m.TasksCommitted))
		gor = append(gor, goroutines[n])
		r.logf("par %-10s tasks=%d squashes=%d runahead=%.3f goroutines=%.0f",
			n, m.TasksCommitted, m.Squashes, ratio(m.RunaheadSum, m.Forks), goroutines[n])
	}
	r.set("parallel.runahead", mean(runahead))
	r.set("parallel.ckpt_words_per_fork", mean(ckpt))
	r.set("parallel.squash_rate", mean(squash))
	r.set("parallel.tasks", geomean(tasks))
	r.set("parallel.goroutines", mean(gor))
	if !r.traced {
		return nil
	}
	reportParClocks(r, ps.names, clocks)

	// The reference for speedup_vs_seq is the production sequential path,
	// timed in this run on the same programs.
	var speedups []float64
	for _, p := range progs {
		var walls []float64
		for i := 0; i < seqReps; i++ {
			t0 := time.Now()
			_, err := runBaseline(p)
			if r.check(err) {
				walls = append(walls, float64(time.Since(t0).Nanoseconds()))
			}
		}
		sp := 0.0
		if pw := median(ps.wallNs[p.name]); pw > 0 {
			sp = median(walls) / pw
		}
		speedups = append(speedups, sp)
		r.set("parallel.speedup_vs_seq."+p.name, sp)
		r.logf("speedup_vs_seq %-10s %.4f x (baseline.Run %.1f ms, parallel.Run %.1f ms)",
			p.name, sp, median(walls)/1e6, median(ps.wallNs[p.name])/1e6)
	}
	r.set("parallel.speedup_vs_seq", geomean(speedups))
	measureSeqLayers(r, progs, newSeqSplit(maxSteps, checkRefRun))
	return nil
}

// reportParClocks sets the hand-off metrics from the coordinator's event
// stamps: per program the median and tail of each gap, and across programs
// their geometric means.
func reportParClocks(r *run, names []string, clocks map[string]*parClock) {
	type gap struct {
		name    string
		samples func(*parClock) []float64
	}
	gaps := []gap{
		{"fork_gap", func(c *parClock) []float64 { return c.forkGaps }},
		{"commit_gap", func(c *parClock) []float64 { return c.commitGaps }},
		{"fork_to_commit", func(c *parClock) []float64 { return c.forkToCommit }},
	}
	for _, g := range gaps {
		var p50s, tails []float64
		for _, n := range names {
			c := clocks[n]
			if c == nil {
				continue
			}
			xs := g.samples(c)
			p50 := median(xs)
			p50s = append(p50s, p50)
			r.set("parallel."+g.name+"_us_p50."+n, p50)
			t, ok := tailPercentile(xs)
			if ok {
				tails = append(tails, t.Value)
			}
			r.logf("parallel %-10s %-15s p50=%.2fus tail=%.2fus %s", n, g.name, p50, t.Value, t)
		}
		r.set("parallel."+g.name+"_us_p50", geomean(p50s))
		r.set("parallel."+g.name+"_us_tail", geomean(tails))
	}
	var vc []float64
	for _, n := range names {
		if c := clocks[n]; c != nil {
			vc = append(vc, median(c.verifyToCommit))
		}
	}
	r.set("parallel.verify_commit_us_p50", geomean(vc))
}
