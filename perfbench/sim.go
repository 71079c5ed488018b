package main

import (
	"fmt"
	"time"

	"mssp/internal/bench"
	"mssp/internal/core"
)

// runSim measures the deterministic machine, core.New plus Machine.Run in
// the experiment suite's default configuration, on Ref programs distilled
// from their Train builds.
func runSim(r *run) error {
	names := shuffled(simPrograms, r.seed)
	progs, st, err := setupPrograms(names, true)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	r.slaves = cfg.Slaves
	sm := &simSamples{
		metrics: map[string]core.Metrics{},
		spans:   map[string]*[nSpans + 1]time.Duration{},
		newMs:   map[string][]float64{},
	}
	plain := func(p *program) (uint64, error) {
		m, err := core.New(p.ref, p.dist, cfg)
		if err != nil {
			return 0, err
		}
		res, err := m.Run()
		if err != nil {
			return 0, err
		}
		sm.metrics[p.name] = res.Metrics
		return res.Metrics.CommittedInsts, checkRef(reference, p.name, res.Final.Digest(), res.Metrics.CommittedInsts)
	}
	traced := func(p *program) (uint64, error) {
		var g gapClock
		tcfg := cfg
		tcfg.OnLifecycle = func(ev core.LifecycleEvent) { g.event(ev.Kind, time.Now()) }
		t0 := time.Now()
		m, err := core.New(p.ref, p.dist, tcfg)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		g.start(t1)
		res, err := m.Run()
		g.finish(time.Now())
		if err != nil {
			return 0, err
		}
		sm.add(p.name, t1.Sub(t0), &g)
		return res.Metrics.CommittedInsts, checkRef(reference, p.name, res.Final.Digest(), res.Metrics.CommittedInsts)
	}
	ps := measurePrograms(r, progs, plain, traced)
	ps.report(r, st)
	reportDistill(r, ps.names, st, sm.metrics)
	sm.report(r, ps)
	if r.traced {
		measureSeqLayers(r, progs, newSeqSplit(maxSteps, checkRefRun))
	}
	return nil
}

// simSamples collects the deterministic machine's counters and, traced,
// its wall time split into core.New and the lifecycle-gap buckets.
type simSamples struct {
	metrics map[string]core.Metrics
	// spans sums, per program over its traced runs, the lifecycle buckets
	// with core.New's time in the last slot.
	spans map[string]*[nSpans + 1]time.Duration
	newMs map[string][]float64
}

func (sm *simSamples) add(name string, newTime time.Duration, g *gapClock) {
	acc := sm.spans[name]
	if acc == nil {
		acc = new([nSpans + 1]time.Duration)
		sm.spans[name] = acc
	}
	for i, d := range g.spans {
		acc[i] += d
	}
	acc[nSpans] += newTime
	sm.newMs[name] = append(sm.newMs[name], ms(newTime))
}

// share returns bucket i's share of the program's traced wall time.
func (sm *simSamples) share(name string, i int) float64 {
	acc := sm.spans[name]
	if acc == nil {
		return 0
	}
	var total time.Duration
	for _, d := range acc {
		total += d
	}
	if total <= 0 {
		return 0
	}
	return float64(acc[i]) / float64(total)
}

// report sets the core layer metrics. The lifecycle spans split the traced
// ns_per_inst: each program's traced ns/inst is divided in proportion to its
// buckets, and the workload-level spans divide the traced geomean by the
// programs' mean shares, so core.new_ns_per_inst plus the five span metrics
// add up to trace.ns_per_inst exactly.
func (sm *simSamples) report(r *run, ps *programSamples) {
	var speedups, tasks, squash, ipt, ckpt, livein, fallback []float64
	var cyc [4][]float64
	for _, n := range ps.names {
		m := sm.metrics[n]
		ref := reference[n]
		sp := 0.0
		if m.Cycles > 0 {
			sp = float64(ref.Steps) / m.Cycles // the baseline retires one inst per cycle
		}
		speedups = append(speedups, sp)
		r.set("core.sim_speedup."+n, sp)
		tasks = append(tasks, float64(m.TasksCommitted))
		squash = append(squash, ratio(m.Squashes, m.Forks))
		ipt = append(ipt, ratio(m.CommittedInsts-m.SeqFallbackInsts, m.TasksCommitted))
		ckpt = append(ckpt, ratio(m.CheckpointNew, m.Forks))
		livein = append(livein, ratio(m.LiveInWords, m.TasksCommitted))
		fallback = append(fallback, ratio(m.SeqFallbackInsts, m.CommittedInsts))
		fm, fs, fc, fr := bench.Attribute(m).Fractions()
		for i, f := range []float64{fm, fs, fc, fr} {
			cyc[i] = append(cyc[i], f)
		}
		r.logf("sim %-10s sim_speedup=%.4f tasks=%d squashes=%d master_ratio=%.4f attribution: %s",
			n, sp, m.TasksCommitted, m.Squashes, ratio(m.MasterInsts, m.CommittedInsts), bench.Attribute(m))
	}
	r.logf("sim_speedup %.4f x (geomean of baseline/MSSP modelled cycles)", geomean(speedups))
	r.set("core.sim_speedup", geomean(speedups))
	r.set("core.tasks", geomean(tasks))
	r.set("core.squash_rate", mean(squash))
	r.set("core.insts_per_task", geomean(ipt))
	r.set("core.ckpt_words_per_fork", mean(ckpt))
	r.set("core.livein_words_per_task", mean(livein))
	r.set("core.fallback_frac", mean(fallback))
	for i, c := range []string{"master", "slave", "commit", "recovery"} {
		r.set("core.cyc_"+c+"_frac", mean(cyc[i]))
	}
	if !r.traced {
		return
	}
	traced := geomean(perProgram(ps.names, ps.tracedNsPerInst, median))
	r.set("core.new_ms", geomean(perProgram(ps.names, sm.newMs, median)))
	for i := 0; i <= nSpans; i++ {
		name := "core.new_ns_per_inst"
		if i < nSpans {
			name = "core." + coreSpans[i] + "_ns_per_inst"
		}
		var shares []float64
		for _, n := range ps.names {
			sh := sm.share(n, i)
			shares = append(shares, sh)
			if i < spanOther {
				r.set(name+"."+n, median(ps.tracedNsPerInst[n])*sh)
			}
		}
		r.set(name, traced*mean(shares))
	}
	for _, n := range ps.names {
		line := fmt.Sprintf("spans %-10s traced_ns_per_inst=%.3f", n, median(ps.tracedNsPerInst[n]))
		for i := 0; i <= nSpans; i++ {
			label := "new"
			if i < nSpans {
				label = coreSpans[i]
			}
			line += fmt.Sprintf(" %s=%.1f%%", label, 100*sm.share(n, i))
		}
		r.logf("%s", line)
	}
}

// reportDistill sets the set-up layer metrics of the MSSP workloads: the
// per-pass cost of profiling and distilling, and the dynamic distillation
// ratio the machine achieved.
func reportDistill(r *run, names []string, st setupStats, m map[string]core.Metrics) {
	r.set("profile.collect_ms", sumMedians(names, st.collectMs))
	r.set("distill.distill_ms", sumMedians(names, st.distMs))
	var ratios []float64
	for _, n := range names {
		ratios = append(ratios, ratio(m[n].MasterInsts, m[n].CommittedInsts))
	}
	r.set("distill.master_ratio", mean(ratios))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
