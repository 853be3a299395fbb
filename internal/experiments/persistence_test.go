package experiments

import (
	"testing"

	"figret/internal/traffic"
)

// persistenceRatio is the squared error of predicting each test snapshot
// by the one before it over that of predicting it by the training mean,
// summed over pairs and the test split of a 75/25 split. For a stationary
// trace with lag-1 autocorrelation ρ it is about 2(1−ρ): below 1 the last
// snapshot beats the mean (ρ > 0.5), at 2 the snapshots are independent
// draws around a fixed mean.
func persistenceRatio(tr *traffic.Trace) float64 {
	train, _ := tr.Split(0.75)
	mean := train.Means()
	var last, avg float64
	for t := train.Len(); t < tr.Len(); t++ {
		prev, cur := tr.At(t-1), tr.At(t)
		for i, v := range cur {
			last += (v - prev[i]) * (v - prev[i])
			avg += (v - mean[i]) * (v - mean[i])
		}
	}
	return last / avg
}

// TestGeneratorPersistence pins what each topology's canonical workload
// carries from one snapshot to the next, at the fast scale, seed 1 and
// T 200. The scenario goldens measure schemes on these traces, so a
// generator change that moves a ratio out of its band changes what the
// goldens measure and must be a deliberate one: GEANT's bursts and
// PoD-DB are persistent, the ToR and PoD-WEB profiles weakly so (the
// training mean predicts them better than the last snapshot), pFabric and
// the gravity WANs independent draws.
func TestGeneratorPersistence(t *testing.T) {
	for _, c := range []struct {
		topo string
		want float64
	}{
		{"geant", 0.264},
		{"pod-db", 0.474},
		{"tor-web", 1.300},
		{"pod-web", 1.492},
		{"tor-db", 1.589},
		{"pfabric", 2.000},
		{"cogentco", 2.001},
		{"uscarrier", 2.002},
		{"large-wan", 1.987},
	} {
		g, err := fastGraph(c.topo)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := traffic.ForTopology(c.topo, g.NumVertices(), 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := persistenceRatio(tr)
		t.Logf("%-9s %.4f", c.topo, got)
		if got < c.want-0.02 || got > c.want+0.02 {
			t.Errorf("%s: last-snapshot/training-mean squared-error ratio %.4f, want %.3f ± 0.02", c.topo, got, c.want)
		}
	}
}
