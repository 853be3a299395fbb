package experiments

import (
	"strings"
	"testing"

	"figret/internal/figret"
	"figret/internal/graph"
)

func TestVisualizeDrift(t *testing.T) {
	env := podEnv(t)
	res, err := VisualizeDrift(env, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpread <= 0 {
		t.Fatalf("spread = %v", res.TotalSpread)
	}
	// Appendix F finding: traffic forms a single cluster over time on
	// stable DC traces.
	if !res.SingleCluster() {
		t.Errorf("quarters drifted apart: %v", res.Drift)
	}
	out := res.String()
	if !strings.Contains(out, "quarter") || !strings.Contains(out, "embedding") {
		t.Error("render broken")
	}
	for q := 0; q < 4; q++ {
		if len(res.Quarters[q]) == 0 {
			t.Errorf("quarter %d empty", q)
		}
	}
}

func TestDOTEFailureCase(t *testing.T) {
	env, err := NewEnv(graph.TopoToRDB, ScaleFast, EnvOptions{T: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DOTEFailureCase(env, figret.Config{H: 6, Gamma: 2, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot < 6 || res.Snapshot >= env.Test.Len() {
		t.Errorf("snapshot %d out of range", res.Snapshot)
	}
	// The located pair must exhibit the stable-then-burst pattern.
	if res.Upcoming <= res.WindowMean {
		t.Errorf("pair did not burst: window %v, upcoming %v", res.WindowMean, res.Upcoming)
	}
	if !strings.Contains(res.String(), "burst pair") {
		t.Error("render broken")
	}
}

func TestMLUProxy(t *testing.T) {
	env := podEnv(t)
	res, err := MLUProxy(env, 8)
	if err != nil {
		t.Fatal(err)
	}
	// MLU must track loss strongly across the overload sweep.
	if res.LossCorr < 0.8 {
		t.Errorf("MLU/loss correlation %v too weak", res.LossCorr)
	}
	if res.DelayCorr < 0.5 {
		t.Errorf("MLU/delay correlation %v too weak", res.DelayCorr)
	}
	// MLU increases monotonically with scale.
	for i := 1; i < len(res.MLU); i++ {
		if res.MLU[i] < res.MLU[i-1] {
			t.Errorf("MLU not monotone in scale: %v", res.MLU)
		}
	}
	// The MLU-optimal configuration loses no more than uniform at stress.
	if res.OmniLoss > res.UniformLoss+1e-9 {
		t.Errorf("omniscient loss %v above uniform %v", res.OmniLoss, res.UniformLoss)
	}
	if !strings.Contains(res.String(), "corr(MLU, loss)") {
		t.Error("render broken")
	}
}
