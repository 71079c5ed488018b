package main

import (
	"fmt"

	"mssp"
	"mssp/internal/core"
	"mssp/internal/predict"
	"mssp/internal/workloads"
)

// predictQuality measures what value-predicted live-ins buy on the
// prediction micro-workload (workloads.MicroPredict): the live-in squash
// rate and the dynamic master instruction count, with the predictor off and
// with the default stride predictor on. The workload is built so distillation
// prunes the block that updates two loop accumulators — without prediction
// every task squashes on stale live-ins; with it the stride predictor
// recovers the values and the squash rate collapses. Both numbers are exact,
// deterministic counts — not wall clock — so the two labels in
// BENCH_core.json ("off" vs "predict") are directly comparable across
// machines.
type predictQualityResult struct {
	squashOff, squashOn float64 // squash rate, fraction of verified tasks
	masterOff, masterOn float64 // dynamic master instructions
}

func predictQuality() (predictQualityResult, error) {
	var out predictQualityResult
	opts := mssp.DefaultPipelineOptions()
	opts.TrainProgram = workloads.MicroPredict(2000, false)
	opts.Distill.PredictableSlots = true
	pl, err := mssp.Prepare(workloads.MicroPredict(50_000, true), opts)
	if err != nil {
		return out, fmt.Errorf("predict bench: %w", err)
	}
	measure := func(on bool) (squashRate, masterInsts float64, err error) {
		cfg := opts.Machine
		if on {
			po := predict.DefaultOptions()
			po.PredictableRegs = pl.Distilled.PredictableRegs
			cfg.Predictor = predict.NewUnit(po)
		}
		m, err := core.New(pl.Prog, pl.Distilled, cfg)
		if err != nil {
			return 0, 0, err
		}
		res, err := m.Run()
		if err != nil {
			return 0, 0, err
		}
		mm := res.Metrics
		verified := float64(mm.TasksCommitted + mm.TasksMisspec)
		if verified == 0 {
			return 0, 0, fmt.Errorf("predict bench: no tasks verified")
		}
		return float64(mm.TasksMisspec) / verified, float64(mm.MasterInsts), nil
	}
	if out.squashOff, out.masterOff, err = measure(false); err != nil {
		return out, err
	}
	if out.squashOn, out.masterOn, err = measure(true); err != nil {
		return out, err
	}
	return out, nil
}
