package main

import (
	"testing"
	"time"
)

// scripted returns a canary that replays ms values in order.
func scripted(t *testing.T, ms ...int) func() time.Duration {
	i := 0
	return func() time.Duration {
		if i >= len(ms) {
			t.Fatalf("canary called more than the %d times scripted", len(ms))
		}
		i++
		return time.Duration(ms[i-1]) * time.Millisecond
	}
}

func TestNoiseGuardRetriesSlowSegments(t *testing.T) {
	// open 50 | seg0 ok, close 52 | seg1 noisy, close 70 -> discard, reopen 51
	// | seg1 again, close 50 | seg2, close 53.
	g := noiseGuard{maxRetries: 3, probe: scripted(t, 50, 52, 70, 51, 50, 53)}
	var ran []int
	if err := g.run(3, func(i int) error { ran = append(ran, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 2}; len(ran) != len(want) || ran[2] != 1 {
		t.Errorf("segments ran %v, want %v (segment 1 twice)", ran, want)
	}
	if g.retried != 1 || g.flagged != 0 {
		t.Errorf("retried %d flagged %d, want 1 0", g.retried, g.flagged)
	}
	if r := g.ratio(); !near(r, 53.0/50.0) {
		t.Errorf("canary ratio %v, want 1.06: the discarded 70 ms canary is not a kept one", r)
	}
}

func TestNoiseGuardKeepsAndFlagsAfterTheCap(t *testing.T) {
	// Every canary after the first is 40% slow: one retry allowed, then keep.
	g := noiseGuard{maxRetries: 1, probe: scripted(t, 50, 70, 70, 70, 70)}
	n := 0
	if err := g.run(2, func(int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 || g.retried != 1 || g.flagged != 2 {
		t.Errorf("ran %d retried %d flagged %d, want 3 1 2", n, g.retried, g.flagged)
	}
	if r := g.ratio(); !near(r, 1.4) {
		t.Errorf("canary ratio %v, want 1.4", r)
	}
}

func TestCanaryDoesFixedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("spins the CPU for ~100 ms")
	}
	a, b := canary(), canary()
	if a <= 0 || b <= 0 || a > 20*b || b > 20*a {
		t.Errorf("two canaries took %v and %v", a, b)
	}
}
