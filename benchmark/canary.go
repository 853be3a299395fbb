package main

import (
	"time"
)

// canarySink keeps the compiler from deleting the spin.
var canarySink uint64

// canaryIters is fixed so that every canary of every run does the same
// work: three spins of about 17 ms of xorshift on the machine the
// benchmark was sized on.
const (
	canaryIters = 10_000_000
	canarySpins = 3
)

// canary spins a fixed amount of pure-CPU work three times and returns the
// fastest spin: a single preemption slows one spin, a noisy stretch of the
// machine slows all three. It never touches the system under test, so it
// cannot favour a commit; it only tells a quiet moment from a noisy one.
func canary() time.Duration {
	best := time.Duration(0)
	for s := 0; s < canarySpins; s++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < canaryIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink += x
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// noiseGuard brackets measured segments with canaries. A segment whose
// canary (before or after) ran more than 15% slower than the best canary
// of the run so far is discarded and run again, up to maxRetries per
// run; after that segments are kept and counted as flagged.
type noiseGuard struct {
	maxRetries int
	probe      func() time.Duration // canary; tests substitute a script

	best      time.Duration
	worstKept time.Duration
	retried   int
	flagged   int
	last      time.Duration // the previous segment's closing canary opens the next
}

const canarySlack = 1.15

// sample runs one canary and folds it into the run's best.
func (g *noiseGuard) sample() time.Duration {
	if g.probe == nil {
		g.probe = canary
	}
	d := g.probe()
	if g.best == 0 || d < g.best {
		g.best = d
	}
	return d
}

// run executes n segments. seg(i) performs segment i and must be
// repeatable: a discarded attempt's samples are dropped by the caller when
// seg is called again with the same i.
func (g *noiseGuard) run(n int, seg func(i int) error) error {
	if g.last == 0 {
		g.last = g.sample()
	}
	for i := 0; i < n; {
		before := g.last
		if err := seg(i); err != nil {
			return err
		}
		after := g.sample()
		g.last = after
		worst := max(before, after)
		if float64(worst) > canarySlack*float64(g.best) {
			if g.retried < g.maxRetries {
				g.retried++
				// A fresh opening canary: the noisy one must not
				// condemn the retry too.
				g.last = g.sample()
				continue
			}
			g.flagged++
		}
		g.worstKept = max(g.worstKept, worst)
		i++
	}
	return nil
}

// ratio is the worst kept canary over the best canary of the run.
func (g *noiseGuard) ratio() float64 {
	if g.best == 0 {
		return 1
	}
	return float64(g.worstKept) / float64(g.best)
}
