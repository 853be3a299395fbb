package main

import (
	"testing"

	"figret/internal/experiments"
	"figret/internal/figret"
)

// TestSimulateDefaultH runs the simulate subcommand with -H 0, which
// train accepts and figret.New turns into the default window: the control
// loop must start at the trained model's window, not the flag's.
func TestSimulateDefaultH(t *testing.T) {
	env, err := experiments.NewEnv("pod-db", experiments.ScaleFast, experiments.EnvOptions{T: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := runSimulate(env, figret.Config{H: 0, Epochs: 1}, 1); err != nil {
		t.Fatal(err)
	}
}
