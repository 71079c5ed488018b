package main

import (
	"fmt"
	"time"

	"mssp/internal/chaos"
	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/profile"
	"mssp/internal/state"
)

const (
	// setupSeeds is how many of the run's chaos programs the set-up
	// generates, profiles and distills.
	setupSeeds = 256
	// chaosMaxSteps bounds a generated program's sequential run, as
	// chaos.Run does.
	chaosMaxSteps = 2_000_000
)

// chaosSeed returns the i-th chaos seed of a benchmark seed: a splitmix64
// hash of it, plus i.
func chaosSeed(seed int64, i int) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) + uint64(i)
}

// runChaos measures the differential soak: chaos.Run on the parallel engine
// at full fault intensity, one seed after another.
func runChaos(r *run) error {
	opts := chaos.Options{FaultIntensity: 1, Engine: chaos.EngineParallel}
	knobs := make([]chaos.Knobs, 0, setupSeeds)
	var walls, nsPerInst, tracedNsPerInst, allocs []float64
	var steps, commits, checked []float64
	reasons := map[string]bool{}
	events := 0
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	gc0 := readGC()
	seeds := 0
	for i := 0; seeds == 0 || time.Now().Before(deadline); i++ {
		o := opts
		o.Seed = chaosSeed(r.seed, i)
		traced := r.traced && i%2 == 1
		if traced {
			o.Observe = func(_ string, cfg *core.Config) {
				prev := cfg.OnLifecycle
				cfg.OnLifecycle = func(ev core.LifecycleEvent) {
					if prev != nil {
						prev(ev)
					}
					events++
				}
			}
		}
		a0 := allocBytes()
		t0 := time.Now()
		rep := chaos.Run(o)
		wall := time.Since(t0)
		alloc := allocBytes() - a0
		seeds++
		if len(knobs) < setupSeeds {
			knobs = append(knobs, rep.Knobs)
		}
		if !r.check(chaosErr(rep)) {
			continue
		}
		nsi := float64(wall.Nanoseconds()) / float64(rep.SeqSteps)
		if traced {
			tracedNsPerInst = append(tracedNsPerInst, nsi)
			continue
		}
		walls = append(walls, ms(wall))
		nsPerInst = append(nsPerInst, nsi)
		allocs = append(allocs, mb(alloc))
		steps = append(steps, float64(rep.SeqSteps))
		var c, m float64
		for _, leg := range []*chaos.LegReport{rep.Clean, rep.Fault, rep.ParClean, rep.ParFault} {
			if leg == nil {
				continue
			}
			c += float64(leg.Commits)
			m += float64(leg.ModelChecked)
			for reason := range leg.Coverage.Reasons {
				reasons[reason] = true
			}
		}
		commits = append(commits, c)
		checked = append(checked, m)
	}
	gcCycles, gcCPU := gcSince(gc0)
	// The set-up is timed after the measured phase because only the
	// reports tell which stride and bias threshold each seed drew.
	for i := len(knobs); i < setupSeeds; i++ {
		o := opts
		o.Seed = chaosSeed(r.seed, i)
		knobs = append(knobs, chaos.Run(o).Knobs)
	}
	st, progs, err := setupChaos(r.seed, knobs)
	if err != nil {
		return err
	}

	total := 0.0
	for _, w := range walls {
		total += w
	}
	r.set("ns_per_inst", geomean(nsPerInst))
	r.set("setup_s", median(st.total))
	r.set("heap_alloc_mb", mean(allocs))
	r.set("max_rss_mb", maxRSSMB())
	if total > 0 {
		r.set("ops_per_s", float64(len(walls))/(total/1e3))
	}
	p50 := median(walls)
	t, ok := tailPercentile(walls)
	r.logf("seeds_per_s %.3f 1/s (%d seeds)", float64(len(walls))/(total/1e3), len(walls))
	r.logf("seed_ms_p50 %.4f ms (n=%d)", p50, len(walls))
	if ok {
		r.logf("seed_ms_tail %.4f ms %s", t.Value, t)
	} else {
		r.logf("seed_ms_tail unavailable: %d seeds, the tail rule needs %d", len(walls), 2*minBeyond)
	}

	r.set("chaos.seed_ms_p50", p50)
	r.set("chaos.seed_ms_tail", t.Value)
	r.set("chaos.seq_steps_per_seed", mean(steps))
	r.set("chaos.commits_per_seed", mean(commits))
	r.set("chaos.model_checked_per_seed", mean(checked))
	r.set("chaos.reasons_covered", float64(len(reasons)))
	r.set("chaos.gen_us", median(st.genUs))
	r.set("profile.collect_ms", median(st.collectMs))
	r.set("distill.distill_ms", median(st.distMs))
	r.set("go.gc_cycles", gcCycles/float64(seeds))
	r.set("go.gc_cpu_frac", gcCPU)
	if !r.traced {
		return nil
	}
	reportOverhead(r, geomean(tracedNsPerInst), geomean(nsPerInst))
	r.logf("trace observed %d lifecycle events", events)
	split := newSeqSplit(chaosMaxSteps, matchSlow)
	split.quiet = true
	measureSeqLayers(r, progs, split)
	return nil
}

// chaosErr turns a failed differential report into an error.
func chaosErr(rep *chaos.Report) error {
	if rep.OK {
		return nil
	}
	return fmt.Errorf("chaos seed %d: %v", rep.Seed, rep.Failures)
}

// chaosSetup holds the chaos set-up timings, per seed and per repetition.
type chaosSetup struct {
	total                    []float64 // seconds per repetition
	genUs, collectMs, distMs []float64 // per seed
}

// setupChaos generates, profiles and distills the run's first setupSeeds
// programs, the per-seed set-up chaos.Run repeats for every seed, with the
// stride and bias threshold each seed drew (knobs[i] for the i-th seed). It
// repeats the set-up (see moreSetup) and returns the last repetition's
// programs.
func setupChaos(seed int64, knobs []chaos.Knobs) (chaosSetup, []*program, error) {
	var st chaosSetup
	var progs []*program
	for rep, start := 0, time.Now(); moreSetup(rep, start); rep++ {
		progs = progs[:0]
		t0 := time.Now()
		for i, k := range knobs {
			cs := chaosSeed(seed, i)
			tg := time.Now()
			g := chaos.GenerateOpts(cs, chaos.GenOptions{})
			tc := time.Now()
			prof, err := profile.Collect(g.Prog, profile.Options{Stride: k.Stride, MaxSteps: chaosMaxSteps + 1})
			if err != nil {
				return st, nil, fmt.Errorf("chaos seed %d: %w", cs, err)
			}
			td := time.Now()
			if _, err := distill.Distill(g.Prog, prof, distill.Options{BiasThreshold: k.BiasThreshold, MinBranchCount: 4}); err != nil {
				return st, nil, fmt.Errorf("chaos seed %d: %w", cs, err)
			}
			st.genUs = append(st.genUs, us(tc.Sub(tg)))
			st.collectMs = append(st.collectMs, ms(td.Sub(tc)))
			st.distMs = append(st.distMs, ms(time.Since(td)))
			progs = append(progs, &program{name: fmt.Sprintf("seed-%d", cs), ref: g.Prog})
		}
		st.total = append(st.total, time.Since(t0).Seconds())
	}
	return st, progs, nil
}

// matchSlow checks a fast-path run of a chaos program against the slow
// reference interpreter.
func matchSlow(p *program, digest uint64, res cpu.RunResult) error {
	s := state.NewFromProgram(p.ref, spDefault)
	want, err := cpu.Run(cpu.StateEnv{S: s}, chaosMaxSteps)
	if err != nil {
		return fmt.Errorf("%s: reference interpreter: %w", p.name, err)
	}
	if !res.Halted || res != want || digest != s.Digest() {
		return fmt.Errorf("%s: fast run (%d insts, digest %#x) differs from the reference interpreter (%d insts, digest %#x)",
			p.name, res.Steps, digest, want.Steps, s.Digest())
	}
	return nil
}
