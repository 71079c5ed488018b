package main

import (
	"fmt"
	"time"

	"mssp/internal/baseline"
	"mssp/internal/cpu"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// runSeq measures the production sequential path, baseline.Run, on every
// Ref program. No speculative layer runs here.
func runSeq(r *run) error {
	names := shuffled(workloads.Names(), r.seed)
	progs, st, err := setupPrograms(names, false)
	if err != nil {
		return err
	}
	split := newSeqSplit(maxSteps, checkRefRun)
	ps := measurePrograms(r, progs, runBaseline, split.run)
	ps.report(r, st)
	if r.traced {
		split.measureFusion(r, progs)
		split.report(r, ps.names)
	}
	return nil
}

// runBaseline is one production sequential run, checked against the
// reference table.
func runBaseline(p *program) (uint64, error) {
	res, err := baseline.Run(p.ref, baseline.Config{CPI: 1})
	if err != nil {
		return 0, err
	}
	return res.Steps, checkRef(reference, p.name, res.Final.Digest(), res.Steps)
}

// seqSplit times the public calls baseline.Run is made of: predecode with
// fusion, building the initial state, and the devirtualized run loop. Each
// run is checked with check, which sees the final state's digest and the
// run's result.
type seqSplit struct {
	steps                              uint64
	check                              func(p *program, digest uint64, res cpu.RunResult) error
	predecodeUs, stateMs, runNsPerInst map[string][]float64
	fusedRatio, pages                  map[string]float64
	// quiet leaves out the per-program report lines.
	quiet bool
}

func newSeqSplit(steps uint64, check func(p *program, digest uint64, res cpu.RunResult) error) *seqSplit {
	return &seqSplit{
		steps: steps, check: check,
		predecodeUs: map[string][]float64{}, stateMs: map[string][]float64{}, runNsPerInst: map[string][]float64{},
		fusedRatio: map[string]float64{}, pages: map[string]float64{},
	}
}

// checkRefRun checks a sequential run of a Ref program against the
// reference table.
func checkRefRun(p *program, digest uint64, res cpu.RunResult) error {
	if !res.Halted {
		return fmt.Errorf("%s: did not halt", p.name)
	}
	return checkRef(reference, p.name, digest, res.Steps)
}

func (s *seqSplit) run(p *program) (uint64, error) {
	t0 := time.Now()
	d := fuse.Predecode(p.ref, fuse.Options{})
	t1 := time.Now()
	st := state.NewFromProgram(p.ref, spDefault)
	t2 := time.Now()
	res, err := cpu.NewCode(d).RunState(st, s.steps)
	t3 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	if err := s.check(p, st.Digest(), res); err != nil {
		return 0, err
	}
	s.predecodeUs[p.name] = append(s.predecodeUs[p.name], us(t1.Sub(t0)))
	s.stateMs[p.name] = append(s.stateMs[p.name], ms(t2.Sub(t1)))
	s.runNsPerInst[p.name] = append(s.runNsPerInst[p.name], float64(t3.Sub(t2).Nanoseconds())/float64(res.Steps))
	s.pages[p.name] = float64(st.Mem.PageCount())
	return res.Steps, nil
}

// measureFusion runs each program once through cpu.Code.RunToStop, whose
// stop result counts the instructions retired by fused dispatch.
func (s *seqSplit) measureFusion(r *run, progs []*program) {
	for _, p := range progs {
		if ratio, err := fusedRatio(p.ref); r.check(err) {
			s.fusedRatio[p.name] = ratio
		}
	}
}

// measureSeqLayers times the sequential core's layers once per program, for
// the workloads whose own operations do not call them one by one.
func measureSeqLayers(r *run, progs []*program, s *seqSplit) {
	var names []string
	for _, p := range progs {
		if _, err := s.run(p); r.check(err) {
			names = append(names, p.name)
		}
	}
	s.measureFusion(r, progs)
	s.report(r, names)
}

// fusedRatio returns the share of p's dynamic instructions retired through
// fused groups on the production predecoded table.
func fusedRatio(p *isa.Program) (float64, error) {
	code := cpu.NewCode(fuse.Predecode(p, fuse.Options{}))
	st := state.NewFromProgram(p, spDefault)
	var steps, fused uint64
	for steps < maxSteps {
		sr, err := code.RunToStop(st, maxSteps-steps)
		if err != nil {
			return 0, err
		}
		steps += sr.Steps
		fused += sr.Fused
		if sr.Kind == cpu.StopHalt {
			return float64(fused) / float64(steps), nil
		}
		if sr.Kind != cpu.StopJalr {
			return 0, fmt.Errorf("fused-ratio run stopped with kind %d after %d insts", sr.Kind, steps)
		}
	}
	return 0, fmt.Errorf("fused-ratio run did not halt")
}

// report sets the sequential-core layer metrics, aggregated over programs
// with the geometric mean of their medians (means for counts and ratios).
// It prints a line per program unless quiet is set.
func (s *seqSplit) report(r *run, names []string) {
	r.set("fuse.predecode_us", geomean(perProgram(names, s.predecodeUs, median)))
	r.set("state.new_ms", geomean(perProgram(names, s.stateMs, median)))
	r.set("cpu.run_ns_per_inst", geomean(perProgram(names, s.runNsPerInst, median)))
	var ratios, pages []float64
	for _, n := range names {
		ratios = append(ratios, s.fusedRatio[n])
		pages = append(pages, s.pages[n])
		if s.quiet {
			continue
		}
		r.logf("layer %-10s predecode_us=%.1f state_new_ms=%.3f run_ns_per_inst=%.3f fused_ratio=%.4f pages=%.0f",
			n, median(s.predecodeUs[n]), median(s.stateMs[n]), median(s.runNsPerInst[n]), s.fusedRatio[n], s.pages[n])
	}
	r.set("cpu.fused_ratio", mean(ratios))
	r.set("mem.pages", mean(pages))
}
