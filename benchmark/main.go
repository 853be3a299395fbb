// Command benchmark is the repository's benchmark: five workloads over the
// real served and scenarios binaries and the in-process trainer, every
// output checked for correctness, every metric printed by name with its
// unit. See README.md in this directory.
//
//	benchmark run     [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-sets 2 -runs 10] [-out F]
//	benchmark compare A.json B.json
//	benchmark bless   [-seeds 0-31]
//	benchmark spec    [-predictions] > BENCHMARK.json
//
// BENCHMARK.json at the repository root names benchmark/run.sh, which
// builds this package and calls `run`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "compare":
		err = cmdCompare(args)
	case "bless":
		err = cmdBless(args)
	case "spec":
		err = cmdSpec(args)
	case trainChildCmd:
		err = trainChild(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, compare, bless or spec)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOpts are one run's parameters.
type runOpts struct {
	seed     int64
	seconds  float64
	traced   bool
	traceDir string
}

// metricValue is how a metric appears in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. The last line of standard output
// is its four contract keys; files written by -out carry the rest too.
type runResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// detail lines are printed above the result line and go nowhere else:
	// sample counts, the issue's own metric names, findings.
	detail []string
}

// spec is the metric list a run of this kind reports.
func (r *runResult) spec() []metricSpec {
	if r.Trace == 1 {
		return perLayer
	}
	return endToEnd
}

func (r *runResult) set(name string, v float64) {
	for _, m := range r.spec() {
		if m.Name == name {
			r.Metrics[name] = metricValue{v, m.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

func (r *runResult) note(format string, a ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, a...))
}

// finish fills the counts and checks that every declared metric of the
// run's kind was reported, so a probe that silently dropped out fails the
// run rather than thinning the result.
func (r *runResult) finish(ops *opCounts) error {
	r.Attempted, r.Failed = ops.attempted.Load(), ops.failed.Load()
	r.Correct = r.Failed == 0
	if ops.firstErr != nil {
		r.note("first failure: %v", ops.firstErr)
	}
	if r.Attempted < 1 {
		return fmt.Errorf("%s attempted no operation", r.Workload)
	}
	for _, m := range r.spec() {
		if _, ok := r.Metrics[m.Name]; !ok {
			return fmt.Errorf("%s did not report %s", r.Workload, m.Name)
		}
	}
	return nil
}

// print writes the human-readable report and, last, the result line.
func (r *runResult) print() {
	kind := "end-to-end"
	if r.Trace == 1 {
		kind = "per-layer (traced run)"
	}
	wl := findWorkload(r.Workload)
	fmt.Printf("== %s  seed=%d  %s\n   operation: %s\n   why: %s\n", r.Workload, r.Seed, kind, wl.Op, wl.Why)
	for _, m := range r.spec() {
		v := r.Metrics[m.Name]
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better; regression bound %.0f%%)", m.Better, m.Bound*100)
		}
		fmt.Printf("   %-36s %16.6g %-6s%s\n", m.Name, v.Value, v.Unit, bound)
	}
	for _, d := range r.detail {
		fmt.Println("   .", d)
	}
	fmt.Printf("   attempted=%d succeeded=%d failed=%d correct=%v\n", r.Attempted, r.Attempted-r.Failed, r.Failed, r.Correct)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Println(string(line))
}

// runOne runs one workload once.
func runOne(h *harness, name string, o runOpts) (*runResult, error) {
	wl := findWorkload(name)
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	res := &runResult{Workload: name, Seed: o.seed, Metrics: map[string]metricValue{}}
	if o.traced {
		res.Trace = 1
	}
	ops := &opCounts{}
	var err error
	switch name {
	case wlTrain:
		err = runTrain(h, wl, o, res, ops)
	case wlSuite:
		err = runSuite(h, wl, o, res, ops)
	default:
		err = runServe(h, wl, o, res, ops)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := res.finish(ops); err != nil {
		return nil, err
	}
	return res, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (empty = all five)")
		seed     = fs.Int64("seed", 3, "inputs are made from this seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", runSeconds, "length of one measured phase")
		trace    = fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file")
		traced   = fs.Bool("traced", false, "same as -trace 1")
		sets     = fs.Int("sets", 1, "2 = run two interleaved sets of the same code and compare them")
		runs     = fs.Int("runs", 1, "runs per workload and set, each with the next seed")
		out      = fs.String("out", "", "write the runs as JSON to this file (set A) and, with -sets 2, <file>.B")
		traceDir = fs.String("tracedir", "", "where span files go (default .bench_build/traces)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 || *sets < 1 || *sets > 2 || *runs < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need -seconds > 0, -sets 1 or 2, -runs >= 1, -trace 0 or 1")
	}
	h, err := newHarness()
	if err != nil {
		return err
	}
	defer h.close()
	o := runOpts{seconds: *seconds, traced: *traced || *trace == 1, traceDir: *traceDir}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(h.work, "traces")
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	results := make([][]*runResult, *sets)
	for i := 0; i < *runs; i++ {
		o.seed = *seed + int64(i)
		for _, name := range names {
			for k := 0; k < *sets; k++ {
				set := k
				if i%2 == 1 {
					set = *sets - 1 - k // alternate which side runs first
				}
				res, err := runOne(h, name, o)
				if err != nil {
					return err
				}
				if *sets > 1 {
					fmt.Printf("-- set %c run %d\n", 'A'+set, i+1)
				}
				res.print()
				results[set] = append(results[set], res)
			}
		}
	}
	if *out != "" {
		for k, rs := range results {
			path := *out
			if k == 1 {
				path += ".B"
			}
			if err := writeResults(path, rs); err != nil {
				return err
			}
		}
	}
	if *sets == 2 {
		return reportCompare(compareSets(results[0], results[1]))
	}
	return nil
}

func writeResults(path string, rs []*runResult) error {
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*runResult
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// runSeconds is BENCHMARK.json's run_seconds: the --seconds the driver
// passes, and what every duration in README.md assumes.
const runSeconds = 10

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// cmdSpec prints BENCHMARK.json from the declarations in spec.go, so the
// two cannot drift apart by hand-editing (TestBenchmarkJSONAgrees checks);
// with -predictions it prints README.md's prediction table instead.
func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	predictions := fs.Bool("predictions", false, "print the per-layer prediction table in Markdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *predictions {
		fmt.Println("| per-layer metric | unit | measured on, and what it should move |\n|---|---|---|")
		for _, m := range perLayer {
			fmt.Printf("| `%s` | %s | %s |\n", m.Name, m.Unit, m.Moves)
		}
		return nil
	}
	out := benchmarkFile{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, fileWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, fileMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, fileMetric{m.Name, m.Unit, m.Better, 0})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
