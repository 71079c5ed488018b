// Package refine implements the jumping-refinement audit from the MSSP
// formal model: every transition of the MSSP machine must correspond to a
// (possibly empty, possibly long) sequence of transitions of the sequential
// reference machine, observed through the projection ψ that extracts
// architected state.
//
// Concretely, the checker runs an MSSP machine with a commit observer and a
// sequential reference machine side by side. Each commit event claims the
// machine "jumped" #t sequential steps; the checker advances the reference
// by #t instructions and compares architected state against the reference
// (registers and PC at every commit, full memory periodically and at the
// end). It also independently re-checks task safety: the event's live-in
// set must have been consistent with the pre-commit reference state, and
// superimposing the live-outs must reproduce the reference's post-state —
// Theorem 2's "consistency + completeness ⇒ safety" checked on every jump.
package refine

import (
	"fmt"

	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
)

// Options configures the audit.
type Options struct {
	// FullCheckEvery performs a full-memory comparison every N commits
	// (0 = only at the end). Register and PC checks happen on every
	// commit regardless.
	FullCheckEvery int
	// CheckTaskSafety re-verifies each task's live-in consistency and
	// live-out superimposition against the reference machine.
	CheckTaskSafety bool
}

// DefaultOptions enables all checks with a full memory comparison every 64
// commits.
func DefaultOptions() Options {
	return Options{FullCheckEvery: 64, CheckTaskSafety: true}
}

// Violation describes one failed check.
type Violation struct {
	Commit int    // 0-based commit event index
	Kind   string // "regs", "pc", "memory", "livein", "liveout", "final", "steps"
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("refine: commit %d: %s: %s", v.Commit, v.Kind, v.Detail)
}

// Report is the audit result.
type Report struct {
	// OK reports whether the run was a jumping refinement of SEQ.
	OK bool
	// Violations lists every failed check (empty when OK).
	Violations []*Violation
	// Commits is the number of architected-state advances observed.
	Commits int
	// FullChecks is the number of full-memory comparisons performed.
	FullChecks int
	// RefSteps is the total number of reference instructions executed.
	RefSteps uint64
	// Result is the underlying MSSP run result (nil when the auditor was
	// attached to an engine directly instead of driven through Check).
	Result *core.Result
}

// Auditor is the streaming form of the jumping-refinement audit: attach its
// OnCommit to any machine that emits core.CommitEvents — the deterministic
// machine or the true-parallel engine — and call Finish once the run ends.
// The commit stream is engine-agnostic by design; the auditor cannot tell
// the engines apart, which is exactly what makes it a shared oracle.
//
// OnCommit must be called from a single goroutine in commit order (both
// engines deliver events that way: core from its simulation goroutine, the
// parallel engine from its coordinator).
type Auditor struct {
	opts   Options
	ref    *state.State
	refRun *cpu.Code
	rep    *Report
}

// NewAuditor builds an auditor whose reference machine starts from the
// program's initial state with the given stack pointer (zero means the
// engines' default).
func NewAuditor(orig *isa.Program, sp uint64, opts Options) *Auditor {
	if sp == 0 {
		sp = 1 << 28
	}
	return &Auditor{
		opts: opts,
		ref:  state.NewFromProgram(orig, sp),
		// One predecoded runner replays the whole reference trajectory; its
		// dirty flag persists across commits, so a store into the code
		// segment drops the replay onto the slow fetch path for the rest of
		// the audit. The table is fused: the replay is step-bounded to each
		// commit's length, and a budget that splits a group executes its
		// components singly, so every architectural write lands before the
		// register file is compared.
		refRun: cpu.NewCode(fuse.Predecode(orig, fuse.Options{})),
		rep:    &Report{},
	}
}

func (a *Auditor) violate(kind, format string, args ...any) {
	a.rep.Violations = append(a.rep.Violations, &Violation{
		Commit: a.rep.Commits,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// OnCommit audits one architected-state advance. It has the signature of
// core.Config.OnCommit; chain it with any other observer.
func (a *Auditor) OnCommit(ev core.CommitEvent) {
	if a.opts.CheckTaskSafety && ev.Kind == "task" {
		// Task safety, part 1: the live-ins the slave observed must be
		// consistent with the pre-commit architected state, which the
		// reference machine currently holds.
		if inc := a.ref.FirstInconsistency(ev.LiveIn); inc != nil {
			a.violate("livein", "committed task's live-ins inconsistent with reference: %v", inc)
		}
	}

	// The jump: advance the reference #t sequential steps.
	res, err := a.refRun.RunState(a.ref, ev.Steps)
	n := res.Steps
	a.rep.RefSteps += n
	if err != nil {
		a.violate("steps", "reference faulted: %v", err)
	} else if n != ev.Steps {
		a.violate("steps", "reference executed %d of claimed %d steps", n, ev.Steps)
	}

	// ψ(MSSP state) must now equal the reference state.
	if ev.Arch.Regs != a.ref.Regs {
		a.violate("regs", "register files diverge")
	}
	if ev.Arch.PC != a.ref.PC {
		a.violate("pc", "pc %d != reference %d", ev.Arch.PC, a.ref.PC)
	}
	if a.opts.CheckTaskSafety && ev.Kind == "task" {
		// Task safety, part 2: the live-outs must cover everything the
		// jump changed — every live-out cell must match the reference
		// post-state. (Completeness of the live-out set relative to
		// the jump is implied by the periodic full-memory checks.)
		if inc := a.ref.FirstInconsistency(ev.LiveOut); inc != nil {
			a.violate("liveout", "live-outs disagree with reference post-state: %v", inc)
		}
	}
	a.rep.Commits++
	if a.opts.FullCheckEvery > 0 && a.rep.Commits%a.opts.FullCheckEvery == 0 {
		a.rep.FullChecks++
		if !ev.Arch.Mem.Equal(a.ref.Mem) {
			a.violate("memory", "memory images diverge at periodic check")
		}
	}
}

// Finish performs the final full comparison against the machine's final
// architected state and seals the report. Call exactly once.
func (a *Auditor) Finish(final *state.State) *Report {
	a.rep.FullChecks++
	if !final.Equal(a.ref) {
		a.violate("final", "final architected state differs from sequential execution")
	}
	a.rep.OK = len(a.rep.Violations) == 0
	return a.rep
}

// Check runs the program under the deterministic MSSP machine with the given
// configuration and audits it against the sequential model.
func Check(orig *isa.Program, dist *distill.Result, cfg core.Config, opts Options) (*Report, error) {
	aud := NewAuditor(orig, cfg.SP, opts)
	prevHook := cfg.OnCommit
	cfg.OnCommit = func(ev core.CommitEvent) {
		if prevHook != nil {
			prevHook(ev)
		}
		aud.OnCommit(ev)
	}

	m, err := core.New(orig, dist, cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	rep := aud.Finish(res.Final)
	rep.Result = res
	return rep, nil
}

// FirstViolation returns the first violation, or nil.
func (r *Report) FirstViolation() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}
