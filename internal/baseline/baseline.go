// Package baseline implements the comparator machine for the MSSP
// experiments: a single processor executing the original program
// sequentially, with the same per-instruction timing model as an MSSP slave.
// MSSP speedups are reported against this machine, mirroring the paper's
// single-core baseline.
package baseline

import (
	"fmt"

	"mssp/internal/cpu"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
)

// Config sets the baseline machine's parameters.
type Config struct {
	// CPI is cycles per instruction.
	CPI float64
	// SP is the initial stack pointer (0 = default).
	SP uint64
	// MaxSteps bounds the run (0 = large default).
	MaxSteps uint64
}

// DefaultConfig matches the slave cores of core.DefaultConfig.
func DefaultConfig() Config { return Config{CPI: 1.0} }

// Result summarizes a baseline run.
type Result struct {
	// Steps is the number of instructions executed.
	Steps uint64
	// Cycles is Steps * CPI.
	Cycles float64
	// Halted reports whether the program reached a halt.
	Halted bool
	// Final is the machine state at the end of the run.
	Final *state.State
}

// Run executes the program to completion on the baseline machine.
func Run(p *isa.Program, cfg Config) (*Result, error) {
	if cfg.CPI <= 0 {
		return nil, fmt.Errorf("baseline: CPI must be positive")
	}
	if cfg.SP == 0 {
		cfg.SP = 1 << 28
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 10_000_000_000
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	s := state.NewFromProgram(p, cfg.SP)
	// The baseline is the hottest sequential loop in the experiment suite:
	// run it predecoded, devirtualized, and fused (cpu fast path with
	// superinstruction dispatch; no anchors — nothing interrupts a
	// sequential run).
	res, err := cpu.NewCode(fuse.Predecode(p, fuse.Options{})).RunState(s, cfg.MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if !res.Halted {
		return nil, fmt.Errorf("baseline: program did not halt within %d instructions", cfg.MaxSteps)
	}
	return &Result{
		Steps:  res.Steps,
		Cycles: float64(res.Steps) * cfg.CPI,
		Halted: res.Halted,
		Final:  s,
	}, nil
}
