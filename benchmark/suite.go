package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// suitePass is one cold `scenarios diff` process.
type suitePass struct {
	wall, cpu time.Duration
	rssMB     float64
}

const suiteClean = "15/15 scenario(s) clean"

// runSuitePass runs the real binary over scenarios/suite against
// scenarios/golden, a fresh process with no path or trace cache, and
// requires exit 0 and the all-clean verdict.
func runSuitePass(h *harness, bin string) (suitePass, error) {
	cmd := exec.Command(bin, "diff", "-q", "-workers", "2")
	cmd.Dir = h.root
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	c, err := h.start(cmd)
	if err != nil {
		return suitePass{}, err
	}
	// The pass's own VmHWM, polled while it runs: ru_maxrss would also
	// count this process's memory at the moment it forked.
	var rss float64
	for running := true; running; {
		select {
		case <-c.done:
			running = false
		case <-time.After(20 * time.Millisecond):
			if v, err := procPeakRSSMB(cmd.Process.Pid); err == nil {
				rss = max(rss, v)
			}
		}
	}
	p := suitePass{wall: time.Since(t0), rssMB: rss}
	if c.err != nil {
		return p, fmt.Errorf("scenarios diff: %w\n%s%s", c.err, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; last != suiteClean {
		return p, fmt.Errorf("scenarios diff ended with %q, want %q", last, suiteClean)
	}
	st := cmd.ProcessState
	p.cpu = st.UserTime() + st.SystemTime()
	return p, nil
}

func runSuite(h *harness, wl *workloadSpec, o runOpts, res *runResult, ops *opCounts) error {
	// Set-up is what the developer waits for before the first pass: the
	// build of the binary (a relink once the build cache is warm).
	var bin string
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		b, d, err := h.build("scenarios")
		if err != nil {
			return err
		}
		bin = b
		setups = append(setups, d.Seconds())
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var passes []suitePass
	var traced []bool
	guard := noiseGuard{maxRetries: maxSegmentRetry}
	err := repeated(o.seconds, &guard, func(rep int) (time.Duration, error) {
		on := tr != nil && rep%2 == 1
		var sp int
		if on {
			sp = tr.start("scenarios.diff", 0, int64(rep))
		}
		ops.attempted.Add(1)
		p, err := runSuitePass(h, bin)
		tr.end(sp)
		if p.wall == 0 {
			return 0, err // the pass never started
		}
		if err != nil {
			ops.fail(err)
		}
		if len(passes) > rep {
			passes, traced = passes[:rep], traced[:rep]
		}
		passes, traced = append(passes, p), append(traced, on)
		return p.wall, nil
	})
	if err != nil {
		return err
	}
	walls := floats(passes, func(p suitePass) float64 { return p.wall.Seconds() })
	suiteS := quantile(sortedCopy(walls), fastQuantile)
	rate := floats(passes, func(p suitePass) float64 { return float64(len(suiteSpecs)) / p.wall.Seconds() })
	var rss float64
	for _, p := range passes {
		rss = max(rss, p.rssMB)
	}
	res.note("suite_s = %.4f s (p10 of %d cold passes: %.4v; median %.4f s); build %.3v s", suiteS, len(passes), walls, median(walls), setups)
	res.note("specs per second %.2f, CPU per pass %.3f s (medians)", median(rate), medianOf(passes, func(p suitePass) float64 { return p.cpu.Seconds() }))
	res.note("peak_rss_mb = %.1f MB (largest VmHWM over the passes)", rss)
	res.note("noise canary: best %.2f ms, worst kept/best = %.3f; passes retried %d, kept though flagged %d",
		ms(guard.best), guard.ratio(), guard.retried, guard.flagged)
	if !o.traced {
		res.set("setup_s", median(setups))
		res.set("op_p10_ms", suiteS*1000)
		return nil
	}
	res.set("loadgen.trace_overhead_ratio", traceOverhead(rate, traced))
	res.set("loadgen.canary_ratio", guard.ratio())
	res.set("loadgen.segments_retried", float64(guard.retried))
	if err := tracedOffline(h, res, tr, o, ops); err != nil {
		return err
	}
	var sum float64
	for _, name := range suiteSpecs {
		sum += res.Metrics["scenario.spec_s."+name].Value
	}
	res.note("sum of scenario.spec_s.* = %.3f s in process, one spec after another; / suite_s %.3f s (2 workers) = %.3f", sum, suiteS, sum/suiteS)
	return nil
}
