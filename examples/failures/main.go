// Failure handling walkthrough (§4.5, Figure 7): a trained FIGRET model
// reroutes around link failures with no retraining, by proportionally
// redistributing each pair's failed-path ratio over its surviving paths.
//
//	go run ./examples/failures
package main

import (
	"fmt"
	"log"
	"math/rand"

	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/lp"
	"figret/internal/te"
	"figret/internal/traffic"
)

func main() {
	g := graph.GEANT()
	ps, err := te.NewPathSet(g, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := traffic.WAN(g.NumVertices(), 160, 5)
	if err != nil {
		log.Fatal(err)
	}
	train, test := trace.Split(0.75)

	model := figret.New(ps, figret.Config{H: 6, Gamma: 1, Epochs: 5, Seed: 5})
	if _, err := model.Train(train); err != nil {
		log.Fatal(err)
	}

	// Walk through one failure event in detail.
	t := 10
	d := test.At(t)
	cfg, err := model.PredictAt(test, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy network: MLU %.4f\n", cfg.MLU(d))

	// Fail a link carrying traffic.
	e := g.Edge(0)
	fs := te.NewFailureSet(g, [][2]int{{e.From, e.To}})
	rerouted := te.Reroute(cfg, fs)
	fmt.Printf("after failing link (%d,%d) and rerouting: MLU %.4f\n",
		e.From, e.To, rerouted.MLU(d))

	// The fault-aware oracle (knows demand AND failure) for reference.
	_, oracle, err := lp.FaultAwareMLUMin(ps, d, fs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-aware oracle:                      MLU %.4f\n", oracle)
	fmt.Printf("FIGRET-with-reroute vs oracle: %.2fx (no retraining needed)\n\n",
		rerouted.MLU(d)/oracle)

	// Sweep 1..3 random failures over several snapshots.
	rng := rand.New(rand.NewSource(9))
	fmt.Printf("%-9s %18s\n", "failures", "avg normalized MLU")
	for nf := 1; nf <= 3; nf++ {
		var sum float64
		var n int
		for trial := 0; trial < 8; trial++ {
			// Resample until the failure set leaves every pair a path.
			fs, ok := experiments.SampleFailures(ps, rng, nf)
			if !ok {
				continue
			}
			tt := 6 + trial
			dd := test.At(tt)
			c, err := model.PredictAt(test, tt)
			if err != nil {
				log.Fatal(err)
			}
			_, oracle, err := lp.FaultAwareMLUMin(ps, dd, fs, nil)
			if err != nil || oracle <= 0 {
				continue
			}
			sum += te.MLUUnderFailure(c, fs, dd) / oracle
			n++
		}
		if n > 0 {
			fmt.Printf("%-9d %18.3f\n", nf, sum/float64(n))
		}
	}
}
