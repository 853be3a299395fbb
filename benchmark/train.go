package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"figret/internal/experiments"
	"figret/internal/figret"
)

// The training workload runs in a child process (this binary, re-executed)
// so that its peak RSS and CPU time are the trainer's alone. The parent
// drives it over stdin/stdout one step at a time, so the noise canary can
// run between repetitions.
const trainChildCmd = "train-child"

// trainReply is what the child answers after one Train.
type trainReply struct {
	Windows    int      `json:"windows,omitempty"` // training samples per epoch, in the ready message
	TrainS     float64  `json:"train_s,omitempty"`
	CPUS       float64  `json:"cpu_s,omitempty"`
	PeakRSSMB  float64  `json:"peak_rss_mb,omitempty"`
	LossBits   []string `json:"epoch_loss_bits,omitempty"`
	WeightsFNV string   `json:"weights_fnv,omitempty"`
	Err        string   `json:"err,omitempty"`
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// trainChild is the child's main: build the environment, say so, then
// train once per line read from stdin.
func trainChild(args []string) error {
	fs := flag.NewFlagSet(trainChildCmd, flag.ContinueOnError)
	seed := fs.Int64("seed", 3, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	env, err := experiments.NewEnv(trainTopo, experiments.ScaleFast, experiments.EnvOptions{T: trainT, Seed: *seed})
	if err != nil {
		return out.Encode(trainReply{Err: err.Error()})
	}
	if err := out.Encode(trainReply{Windows: env.Train.Len() - serveH}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		m := figret.New(env.PS, figret.Config{H: serveH, Gamma: 1, BatchSize: serveBatch, Epochs: trainEpochs, Seed: *seed})
		cpu0, t0 := selfCPU(), time.Now()
		stats, err := m.Train(env.Train)
		rep := trainReply{TrainS: time.Since(t0).Seconds(), CPUS: (selfCPU() - cpu0).Seconds()}
		if err != nil {
			rep.Err = err.Error()
		} else {
			for _, l := range stats.EpochLoss {
				rep.LossBits = append(rep.LossBits, fmt.Sprintf("%#016x", math.Float64bits(l)))
			}
			h := fnv.New64a()
			var b [8]byte
			m.Net.VisitParams(func(params, _ []float64) {
				for _, p := range params {
					u := math.Float64bits(p)
					for i := range b {
						b[i] = byte(u >> (8 * i))
					}
					h.Write(b[:])
				}
			})
			rep.WeightsFNV = fmt.Sprintf("%#016x", h.Sum64())
			rep.PeakRSSMB, _ = procPeakRSSMB(os.Getpid()) // 0 when /proc is missing: reported as is
		}
		if err := out.Encode(rep); err != nil {
			return err
		}
	}
	return in.Err()
}

// trainProc is the parent's handle on one child.
type trainProc struct {
	proc  *child
	stdin io.WriteCloser
	out   *json.Decoder
	ready trainReply
}

func startTrainChild(h *harness, seed int64) (*trainProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, trainChildCmd, "-seed", strconv.FormatInt(seed, 10))
	cmd.Dir = h.tmp
	cmd.Stderr = os.Stderr
	p := &trainProc{}
	if p.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if p.proc, err = h.start(cmd); err != nil {
		return nil, err
	}
	p.out = json.NewDecoder(stdout)
	if err := p.read(&p.ready); err != nil {
		p.stop()
		return nil, fmt.Errorf("training child set-up: %w", err)
	}
	return p, nil
}

func (p *trainProc) read(r *trainReply) error {
	if err := p.out.Decode(r); err != nil {
		return err
	}
	if r.Err != "" {
		return fmt.Errorf("%s", r.Err)
	}
	return nil
}

// train asks for one Train and waits for it.
func (p *trainProc) train() (trainReply, error) {
	var r trainReply
	if _, err := io.WriteString(p.stdin, "train\n"); err != nil {
		return r, err
	}
	return r, p.read(&r)
}

// stop closes the child's stdin, which ends its loop, and waits.
func (p *trainProc) stop() {
	p.stdin.Close()
	select {
	case <-p.proc.done:
	case <-time.After(10 * time.Second):
		p.proc.cmd.Process.Kill()
		<-p.proc.done
	}
}

// expectedTrain is benchmark/expected/train-largewan.json: the blessed
// loss trajectory and weights hash per seed.
type expectedTrain struct {
	Config string                `json:"config"`
	Seeds  map[string]trainReply `json:"seeds"`
}

func trainConfigString() string {
	return fmt.Sprintf("large-wan fast T=%d H=%d gamma=1 batch=%d epochs=%d", trainT, serveH, serveBatch, trainEpochs)
}

func expectedTrainPath(root string) string {
	return filepath.Join(root, "benchmark", "expected", "train-largewan.json")
}

func loadExpectedTrain(root string) (*expectedTrain, error) {
	b, err := os.ReadFile(expectedTrainPath(root))
	if err != nil {
		return nil, err
	}
	var e expectedTrain
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, err
	}
	if e.Config != trainConfigString() {
		return nil, fmt.Errorf("%s was blessed for %q, the benchmark trains %q: run `benchmark bless`",
			expectedTrainPath(root), e.Config, trainConfigString())
	}
	return &e, nil
}

func sameTrajectory(a, b trainReply) bool {
	return a.WeightsFNV == b.WeightsFNV && strings.Join(a.LossBits, ",") == strings.Join(b.LossBits, ",")
}

// repeated runs op under the noise guard until `seconds` have been spent
// in kept repetitions, and at least twice so that a median exists. Odd
// repetitions are the traced ones of a traced run.
func repeated(seconds float64, g *noiseGuard, op func(rep int) (time.Duration, error)) error {
	var spent time.Duration
	for n := 0; n < 2 || spent.Seconds() < seconds; n++ {
		var d time.Duration
		err := g.run(1, func(int) (err error) {
			d, err = op(n)
			return err
		})
		if err != nil {
			return err
		}
		spent += d
	}
	return nil
}

func runTrain(h *harness, wl *workloadSpec, o runOpts, res *runResult, ops *opCounts) error {
	expected, err := loadExpectedTrain(h.root)
	if err != nil {
		return err
	}
	var p *trainProc
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if p != nil {
			p.stop()
		}
		t0 := time.Now()
		if p, err = startTrainChild(h, o.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.stop()

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var reps []trainReply
	var traced []bool
	guard := noiseGuard{maxRetries: maxSegmentRetry}
	err = repeated(o.seconds, &guard, func(rep int) (time.Duration, error) {
		on := tr != nil && rep%2 == 1
		var sp int
		if on {
			sp = tr.start("figret.train", 0, int64(rep))
		}
		ops.attempted.Add(1)
		r, err := p.train()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if len(reps) > rep { // a retry replaces the discarded repetition
			reps, traced = reps[:rep], traced[:rep]
		}
		reps, traced = append(reps, r), append(traced, on)
		return time.Duration(r.TrainS * float64(time.Second)), nil
	})
	if err != nil {
		return err
	}
	// Correctness: every repetition is bitwise the first, and the first is
	// bitwise what was blessed for this seed.
	for i, r := range reps {
		if !sameTrajectory(r, reps[0]) {
			ops.fail(fmt.Errorf("repetition %d trained a different trajectory than repetition 1 on the same inputs", i+1))
		}
	}
	if want, ok := expected.Seeds[strconv.FormatInt(o.seed, 10)]; !ok {
		res.note("seed %d has no blessed trajectory in benchmark/expected; checked only that repetitions agree bitwise", o.seed)
	} else if !sameTrajectory(reps[0], want) {
		ops.fail(fmt.Errorf("loss trajectory or weights hash differs from benchmark/expected/train-largewan.json for seed %d: got %v %s, want %v %s",
			o.seed, reps[0].LossBits, reps[0].WeightsFNV, want.LossBits, want.WeightsFNV))
	}

	samples := float64(trainEpochs * p.ready.Windows)
	walls := floats(reps, func(r trainReply) float64 { return r.TrainS })
	fast := quantile(sortedCopy(walls), fastQuantile)
	rate := floats(reps, func(r trainReply) float64 { return samples / r.TrainS })
	res.note("train_s = %.4f s (p10 of %d Train calls of %d epoch(s) x %d windows: %.4v; median %.4f s); final loss %s",
		fast, len(reps), trainEpochs, p.ready.Windows, walls, median(walls), reps[0].LossBits[len(reps[0].LossBits)-1])
	res.note("training samples per second %.1f, CPU per Train %.4f s (medians)",
		median(rate), medianOf(reps, func(r trainReply) float64 { return r.CPUS }))
	res.note("peak_rss_mb = %.1f MB (VmHWM of the training child)", reps[len(reps)-1].PeakRSSMB)
	res.note("noise canary: best %.2f ms, worst kept/best = %.3f; repetitions retried %d, kept though flagged %d",
		ms(guard.best), guard.ratio(), guard.retried, guard.flagged)
	if !o.traced {
		res.set("setup_s", median(setups))
		res.set("op_p10_ms", fast*1000)
		return nil
	}
	p.stop() // free the memory before the probes run
	res.set("loadgen.trace_overhead_ratio", traceOverhead(rate, traced))
	res.set("loadgen.canary_ratio", guard.ratio())
	res.set("loadgen.segments_retried", float64(guard.retried))
	return tracedOffline(h, res, tr, o, ops)
}

// tracedOffline is the rest of a traced run for the two workloads that
// have no daemon of their own: boot the geant probe daemon, take the
// attached metrics from a short closed loop on it, then run the socket
// probes and the layer battery.
func tracedOffline(h *harness, res *runResult, tr *tracer, o runOpts, ops *opCounts) error {
	served, _, err := h.build("served")
	if err != nil {
		return err
	}
	probe, err := bootProbeRig(h, served, o.seed, ops)
	if err != nil {
		return err
	}
	defer probe.close()
	guard := &noiseGuard{maxRetries: maxSegmentRetry}
	ph, err := probe.measure(2, serveSegments, guard, tr)
	if err != nil {
		return err
	}
	res.note("attached metrics below come from a 2 s closed loop on the geant probe daemon: this workload has no daemon of its own")
	if err := attachedMetrics(res, probe, ph, guard); err != nil {
		return err
	}
	if err := pacedPhase(res, probe, tr); err != nil {
		return err
	}
	return fixedProbes(h, res, tr, o, probe)
}

// cmdBless trains every seed of the range once and writes
// benchmark/expected/train-largewan.json.
func cmdBless(args []string) error {
	fs := flag.NewFlagSet("bless", flag.ContinueOnError)
	seeds := fs.String("seeds", "0-31", "seed range lo-hi to bless")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var lo, hi int64
	if _, err := fmt.Sscanf(*seeds, "%d-%d", &lo, &hi); err != nil || hi < lo {
		return fmt.Errorf("bad -seeds %q (want lo-hi)", *seeds)
	}
	h, err := newHarness()
	if err != nil {
		return err
	}
	defer h.close()
	e := expectedTrain{Config: trainConfigString(), Seeds: map[string]trainReply{}}
	for s := lo; s <= hi; s++ {
		p, err := startTrainChild(h, s)
		if err != nil {
			return err
		}
		r, err := p.train()
		p.stop()
		if err != nil {
			return err
		}
		e.Seeds[strconv.FormatInt(s, 10)] = trainReply{LossBits: r.LossBits, WeightsFNV: r.WeightsFNV}
		fmt.Printf("seed %d: %.2fs, loss %v, weights %s\n", s, r.TrainS, r.LossBits, r.WeightsFNV)
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(expectedTrainPath(h.root)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedTrainPath(h.root), append(b, '\n'), 0o644)
}
