package main

import (
	"fmt"
	"math/rand"
	"time"

	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/profile"
	"mssp/internal/workloads"
)

const (
	spDefault = 1 << 28
	maxSteps  = 10_000_000_000
	// A run repeats its set-up at least minSetupReps times and until
	// minSetupTime has passed, at most maxSetupReps times; setup_s is the
	// median repetition.
	minSetupReps = 15
	maxSetupReps = 200
	minSetupTime = 2 * time.Second
	// minRounds is the fewest rounds an untraced program workload runs, so
	// every per-program median has at least three samples. A traced round
	// runs each program twice, plain and traced, in alternating order;
	// tracedRounds lets each program run in both orders.
	minRounds    = 3
	tracedRounds = 2
	// profileStride is the anchor stride of the Train profile, the
	// experiment suite's default.
	profileStride = 100
)

// program is one Ref program with, for the MSSP workloads, its
// distillation from the Train build.
type program struct {
	name string
	ref  *isa.Program
	dist *distill.Result
}

// setupStats holds per-repetition set-up timings.
type setupStats struct {
	total                      []float64            // seconds per repetition
	buildMs, collectMs, distMs map[string][]float64 // per program
}

// setupPrograms builds the named programs' Ref images and, when distil is
// set, profiles their Train builds and distills them. It repeats the whole
// set-up (see moreSetup) and keeps the last repetition's artefacts.
func setupPrograms(names []string, distil bool) ([]*program, setupStats, error) {
	st := setupStats{buildMs: map[string][]float64{}, collectMs: map[string][]float64{}, distMs: map[string][]float64{}}
	var progs []*program
	for rep, start := 0, time.Now(); moreSetup(rep, start); rep++ {
		progs = progs[:0]
		t0 := time.Now()
		for _, name := range names {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, st, err
			}
			tb := time.Now()
			p := &program{name: name, ref: w.Build(workloads.Ref)}
			var train *isa.Program
			if distil {
				train = w.Build(workloads.Train)
			}
			st.buildMs[name] = append(st.buildMs[name], ms(time.Since(tb)))
			if distil {
				tc := time.Now()
				prof, err := profile.Collect(train, profile.Options{Stride: profileStride})
				if err != nil {
					return nil, st, fmt.Errorf("%s: %w", name, err)
				}
				td := time.Now()
				if p.dist, err = distill.Distill(train, prof, distill.DefaultOptions()); err != nil {
					return nil, st, fmt.Errorf("%s: %w", name, err)
				}
				st.collectMs[name] = append(st.collectMs[name], ms(td.Sub(tc)))
				st.distMs[name] = append(st.distMs[name], ms(time.Since(td)))
			}
			progs = append(progs, p)
		}
		st.total = append(st.total, time.Since(t0).Seconds())
	}
	return progs, st, nil
}

// moreSetup reports whether another set-up repetition should run after rep
// repetitions that began at start.
func moreSetup(rep int, start time.Time) bool {
	return rep < minSetupReps || (rep < maxSetupReps && time.Since(start) < minSetupTime)
}

// perProgram returns, for each program in order, f of its samples.
func perProgram(names []string, samples map[string][]float64, f func([]float64) float64) []float64 {
	out := make([]float64, 0, len(names))
	for _, n := range names {
		out = append(out, f(samples[n]))
	}
	return out
}

// sumMedians sums the per-program medians: the cost of one pass.
func sumMedians(names []string, samples map[string][]float64) float64 {
	sum := 0.0
	for _, v := range perProgram(names, samples, median) {
		sum += v
	}
	return sum
}

// shuffled returns names in an order drawn from seed, so the round-robin
// order varies with the seed while the programs stay fixed.
func shuffled(names []string, seed int64) []string {
	out := append([]string(nil), names...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// closedLoop calls op for each program in turn, round after round. It
// starts a new round while seconds have not yet elapsed or fewer than
// minRounds have run, so every program runs equally often.
func closedLoop(n int, seconds float64, minRounds int, op func(round, i int)) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		for i := 0; i < n; i++ {
			op(round, i)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
