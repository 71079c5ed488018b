package main

import (
	"time"

	"mssp/internal/core"
)

// Span buckets for the deterministic machine's lifecycle gaps, indexes into
// coreSpans.
const (
	spanExec = iota
	spanVerify
	spanFork
	spanFallback
	spanOther
	nSpans
)

// spanOf charges a lifecycle kind to the bucket of the gap it closes:
//   - dispatch closes the master's run to its fork plus the slave's
//     execution, which the machine performs just before dispatching;
//   - verify, commit and squash close the verify unit's work;
//   - fork, predict and policy close checkpoint and snapshot building;
//   - fallback-enter and fallback-exit close sequential fallback.
func spanOf(kind string) int {
	switch kind {
	case core.LifecycleDispatch:
		return spanExec
	case core.LifecycleVerify, core.LifecycleCommit, core.LifecycleSquash:
		return spanVerify
	case core.LifecycleFork, core.LifecyclePredict, core.LifecyclePolicy:
		return spanFork
	case core.LifecycleFallbackEnter, core.LifecycleFallbackExit:
		return spanFallback
	}
	return spanOther
}

// gapClock attributes the wall time of one machine run to lifecycle
// buckets. Each gap between consecutive events is charged to the kind of the
// event that closes it; the gap after the last event is charged to "other".
// The buckets therefore add up to the run's wall time exactly.
type gapClock struct {
	last  time.Time
	spans [nSpans]time.Duration
}

func (g *gapClock) start(t time.Time) { g.last = t }

func (g *gapClock) event(kind string, t time.Time) {
	g.spans[spanOf(kind)] += t.Sub(g.last)
	g.last = t
}

func (g *gapClock) finish(t time.Time) { g.spans[spanOther] += t.Sub(g.last) }

// total returns the attributed wall time.
func (g *gapClock) total() time.Duration {
	var sum time.Duration
	for _, d := range g.spans {
		sum += d
	}
	return sum
}

// parClock records wall-time stamps of the parallel engine's lifecycle
// stream over one or more runs of a program; call begin before each run.
// The engine's coordinator goroutine delivers every event, so the clock
// needs no locking.
type parClock struct {
	lastFork, lastCommit time.Time
	forkAt               map[uint64]time.Time
	verifyAt             map[uint64]time.Time
	// Samples in microseconds.
	forkGaps, commitGaps, forkToCommit, verifyToCommit []float64
}

func newParClock() *parClock {
	return &parClock{forkAt: map[uint64]time.Time{}, verifyAt: map[uint64]time.Time{}}
}

// begin starts a new engine run: gaps are measured within a run only, so
// the time between two runs never counts as a fork or commit gap.
func (c *parClock) begin() {
	c.lastFork, c.lastCommit = time.Time{}, time.Time{}
	clear(c.forkAt)
	clear(c.verifyAt)
}

func (c *parClock) event(ev core.LifecycleEvent, t time.Time) {
	switch ev.Kind {
	case core.LifecycleFork:
		if !c.lastFork.IsZero() {
			c.forkGaps = append(c.forkGaps, us(t.Sub(c.lastFork)))
		}
		c.lastFork = t
		c.forkAt[ev.TaskID] = t
	case core.LifecycleVerify:
		c.verifyAt[ev.TaskID] = t
	case core.LifecycleCommit:
		if !c.lastCommit.IsZero() {
			c.commitGaps = append(c.commitGaps, us(t.Sub(c.lastCommit)))
		}
		c.lastCommit = t
		if f, ok := c.forkAt[ev.TaskID]; ok {
			c.forkToCommit = append(c.forkToCommit, us(t.Sub(f)))
		}
		if v, ok := c.verifyAt[ev.TaskID]; ok {
			c.verifyToCommit = append(c.verifyToCommit, us(t.Sub(v)))
		}
		delete(c.forkAt, ev.TaskID)
		delete(c.verifyAt, ev.TaskID)
	case core.LifecycleSquash:
		delete(c.forkAt, ev.TaskID)
		delete(c.verifyAt, ev.TaskID)
	}
}
