package main

import (
	"bytes"
	"strings"
	"testing"

	"figret/internal/experiments"
	"figret/internal/figret"
)

// TestStudiesRun drives every row of experiments.Studies through the
// CLI's own loop on one small topology: each study must run and render
// text under its banner, names must be unique (run dispatches on them),
// fig17 must resolve to fig16, and an unknown name must be an error.
func TestStudiesRun(t *testing.T) {
	r := runner{
		topo:  "pod-db",
		env:   experiments.EnvOptions{T: 60, Seed: 1},
		model: figret.Config{H: 4, Epochs: 1},
	}
	var all bytes.Buffer
	if err := r.run(&all, "all"); err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, sec := range strings.Split(all.String(), "==== ")[1:] {
		name, body, _ := strings.Cut(sec, " ====\n")
		if _, dup := sections[name]; dup {
			t.Errorf("study %s appears twice", name)
		}
		sections[name] = body
	}
	if len(sections) != len(experiments.Studies) {
		t.Errorf("%d sections for %d studies", len(sections), len(experiments.Studies))
	}
	for _, s := range experiments.Studies {
		if (s.Each == nil) == (s.All == nil) {
			t.Errorf("%s: exactly one of Each and All must be set", s.Name)
		}
		if strings.TrimSpace(sections[s.Name]) == "" {
			t.Errorf("%s rendered nothing", s.Name)
		}
	}

	var fig17 bytes.Buffer
	if err := r.run(&fig17, "fig17"); err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(sections["fig16"], "\n"); fig17.String() != want {
		t.Errorf("-exp fig17 is not fig16's study:\n%s\nwant\n%s", fig17.String(), want)
	}
	if err := r.run(&fig17, "nope"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("-exp nope: %v", err)
	}
}
