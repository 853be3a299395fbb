// Command scenarios drives the declarative scenario-matrix subsystem
// (internal/scenario): it runs suites of JSON scenario specs, blesses
// their metrics as goldens, and diffs fresh runs against the blessed
// goldens with tolerance gating — the regression gate CI's
// scenario-matrix job is built on.
//
// Usage:
//
//	scenarios run   [-suite dir] [-json] [flags]
//	scenarios bless [-suite dir] [-golden dir] [flags]
//	scenarios diff  [-suite dir] [-golden dir] [-json] [flags]
//
// run prints fresh metrics; bless writes them as goldens; diff fails
// (exit 1) when any scenario regressed past tolerance or lacks a golden.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"figret/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run", "bless", "diff":
		err = execute(cmd, args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenarios: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scenarios run   [-suite dir] [-json] [-workers n] [-pathcache dir]
  scenarios bless [-suite dir] [-golden dir] [-workers n] [-pathcache dir]
  scenarios diff  [-suite dir] [-golden dir] [-json] [-workers n] [-pathcache dir]

Every fan-out (evaluation, substrate training, path precompute) sizes
itself from GOMAXPROCS, -workers included by default, so GOMAXPROCS=1 runs
everything on one goroutine. Metrics are bitwise identical at any setting.`)
}

func execute(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		opt     scenario.Options
		suite   = fs.String("suite", "scenarios/suite", "directory of scenario spec *.json files")
		golden  = fs.String("golden", "scenarios/golden", "directory of blessed golden metrics (bless/diff)")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		quiet   = fs.Bool("q", false, "suppress the per-scenario progress lines and the closing summary on stderr")
	)
	fs.IntVar(&opt.Workers, "workers", runtime.GOMAXPROCS(0), "per-scenario evaluation worker pool size, and how many substrates run at once; metrics are bitwise identical for any value")
	fs.StringVar(&opt.PathCache, "pathcache", "", "directory of the on-disk candidate-path cache shared with figret/experiments/served (empty = recompute)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	specs, err := scenario.LoadSuite(*suite)
	if err != nil {
		return err
	}

	if !*quiet && !*jsonOut {
		opt.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	runner := scenario.NewRunner(opt)
	start := time.Now()
	metrics, err := runner.Run(specs)
	if err != nil {
		return err
	}
	if opt.Log != nil {
		opt.Log("%d scenarios on %d substrates: wall %.2f s, cpu %.2f s",
			len(metrics), runner.Substrates(), time.Since(start).Seconds(), cpuSeconds())
	}

	switch cmd {
	case "run":
		return emit(metrics, *jsonOut)
	case "bless":
		st, err := scenario.NewStore(*golden)
		if err != nil {
			return err
		}
		for _, m := range metrics {
			if err := st.Save(m); err != nil {
				return err
			}
		}
		fmt.Printf("blessed %d scenario golden(s) into %s\n", len(metrics), *golden)
		return nil
	case "diff":
		return diff(metrics, *golden, specs, *jsonOut)
	}
	return nil
}

func emit(metrics []*scenario.Metrics, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(metrics)
	}
	fmt.Print(scenario.Render(metrics))
	return nil
}

// diffReport is the machine-readable diff output.
type diffReport struct {
	Scenario     string   `json:"scenario"`
	OK           bool     `json:"ok"`
	Regressions  []string `json:"regressions,omitempty"`
	Improvements []string `json:"improvements,omitempty"`
}

func diff(metrics []*scenario.Metrics, goldenDir string, specs []*scenario.Spec, asJSON bool) error {
	st, err := scenario.NewStore(goldenDir)
	if err != nil {
		return err
	}
	tolerances := make(map[string]float64, len(specs))
	for _, sp := range specs {
		tolerances[sp.Name] = sp.Tolerance
	}
	failed := 0
	reports := make([]diffReport, 0, len(metrics))

	// Orphaned goldens: a golden whose spec left the suite means the gate
	// silently shrank — deleting a scenario must be as deliberate as
	// regressing one.
	blessed, err := st.List()
	if err != nil {
		return err
	}
	for _, name := range blessed {
		if _, inSuite := tolerances[name]; !inSuite {
			failed++
			reports = append(reports, diffReport{Scenario: name, Regressions: []string{
				fmt.Sprintf("golden %s has no spec in the suite (scenario deleted? remove the golden to accept)", name),
			}})
		}
	}
	for _, m := range metrics {
		g, err := st.Load(m.Scenario)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				err = fmt.Errorf("no golden for %s (run `scenarios bless` to create it)", m.Scenario)
			}
			failed++
			reports = append(reports, diffReport{Scenario: m.Scenario, Regressions: []string{err.Error()}})
			continue
		}
		d := scenario.Compare(g, m, tolerances[m.Scenario])
		if !d.OK() {
			failed++
		}
		reports = append(reports, diffReport{
			Scenario: m.Scenario, OK: d.OK(),
			Regressions: d.Regressions, Improvements: d.Improvements,
		})
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, r := range reports {
			for _, reg := range r.Regressions {
				fmt.Printf("REGRESSION %s: %s\n", r.Scenario, reg)
			}
			for _, im := range r.Improvements {
				fmt.Printf("improved   %s: %s\n", r.Scenario, im)
			}
		}
		fmt.Printf("%d/%d scenario(s) clean\n", len(reports)-failed, len(reports))
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) regressed or lack goldens", failed)
	}
	return nil
}
