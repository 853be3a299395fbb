package netsim

import (
	"testing"

	"figret/internal/te"
	"figret/internal/traffic"
)

// failureSetup builds the substrate the mid-series failure tests share:
// the PoD fabric, a calibrated trace and a failure set taking down one
// link (both directions).
func failureSetup(t *testing.T) (*te.PathSet, *traffic.Trace, *te.FailureSet) {
	t.Helper()
	ps, tr := loopSetup(t)
	fs := te.NewFailureSet(ps.G, [][2]int{{0, 1}})
	return ps, tr, fs
}

// TestControlLoopMidSeriesFailure drives the control loop with an
// advisor that learns of a failure at interval failAt: advice from then
// on is rerouted. With installation delay d, the network must keep
// forwarding with pre-failure configurations for exactly d intervals
// after the cut — the staleness window the paper's §1 control loop
// exposes — and every interval must equal the hand-computed fixed-point
// simulation of whatever configuration is installed at that time.
func TestControlLoopMidSeriesFailure(t *testing.T) {
	ps, tr, fs := failureSetup(t)
	uni := te.UniformConfig(ps)
	rerouted := te.Reroute(uni, fs)
	const from, to, failAt, delay = 5, 35, 20, 3

	cl := &ControlLoop{
		Advise: func(t int) (*te.Config, error) {
			if t >= failAt {
				return rerouted, nil
			}
			return uni, nil
		},
		Delay:   delay,
		Initial: uni,
	}
	res, err := cl.Run(tr.At, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerInterval) != to-from {
		t.Fatalf("intervals = %d, want %d", len(res.PerInterval), to-from)
	}

	// installedAt mirrors the loop's pipeline: advice computed at
	// interval t takes effect at t+delay.
	installedAt := func(t int) *te.Config {
		if t-delay >= failAt {
			return rerouted
		}
		return uni
	}
	for t_ := from; t_ < to; t_++ {
		want, err := Simulate(installedAt(t_), tr.At(t_))
		if err != nil {
			t.Fatal(err)
		}
		got := res.PerInterval[t_-from]
		if got.MLU != want.MLU || got.Delivered != want.Delivered || got.MeanDelay != want.MeanDelay {
			t.Fatalf("interval %d: loop result diverges from installed-config simulation (MLU %v vs %v)",
				t_, got.MLU, want.MLU)
		}
	}

	// The staleness window [failAt, failAt+delay) must still run the
	// pre-failure configuration — the rerouted one lands exactly at
	// failAt+delay.
	pre, err := Simulate(uni, tr.At(failAt+delay-1))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerInterval[failAt+delay-1-from].MLU != pre.MLU {
		t.Fatal("stale window rerouted early")
	}
	post, err := Simulate(rerouted, tr.At(failAt+delay))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerInterval[failAt+delay-from].MLU != post.MLU {
		t.Fatal("rerouted configuration did not land at failAt+delay")
	}
}

// TestControlLoopZeroDelayFailure: with Delay 0 the rerouted advice
// takes effect in the same interval the advisor learns of the failure —
// no staleness window at all.
func TestControlLoopZeroDelayFailure(t *testing.T) {
	ps, tr, fs := failureSetup(t)
	uni := te.UniformConfig(ps)
	rerouted := te.Reroute(uni, fs)
	const from, to, failAt = 5, 25, 12

	cl := &ControlLoop{
		Advise: func(t int) (*te.Config, error) {
			if t >= failAt {
				return rerouted, nil
			}
			return uni, nil
		},
		Delay:   0,
		Initial: uni,
	}
	res, err := cl.Run(tr.At, from, to)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(rerouted, tr.At(failAt))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerInterval[failAt-from].MLU != want.MLU {
		t.Fatal("zero-delay loop did not install rerouted advice immediately")
	}
}
