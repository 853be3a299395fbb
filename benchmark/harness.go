package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves behind: child processes and the
// run's temp directory. close is called on every exit path, including
// SIGINT/SIGTERM, mirroring test/e2e.sh's trap.
type harness struct {
	root string // repository root (holds go.mod of module figret)
	work string // <root>/.bench_build: binaries, temp, span dumps
	tmp  string // this run's temp directory, removed by close

	mu    sync.Mutex
	procs map[*child]struct{}
	once  sync.Once
}

// child is a started process; one goroutine reaps it and closes done.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// findRoot walks up from the working directory to the directory holding
// the figret module, so the benchmark runs from the root (run.sh) and
// from its own directory (go run -C benchmark .) alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module figret\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "served")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the figret repository (no go.mod of module figret with cmd/served above the working directory)")
		}
		dir = parent
	}
}

func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, work: filepath.Join(root, ".bench_build"), procs: map[*child]struct{}{}}
	for _, d := range []string{"bin", "tmp", "traces"} {
		if err := os.MkdirAll(filepath.Join(h.work, d), 0o755); err != nil {
			return nil, err
		}
	}
	if h.tmp, err = os.MkdirTemp(filepath.Join(h.work, "tmp"), "run-"); err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()
	return h, nil
}

// close kills every child still running, waits for it, and removes the
// run's temp directory.
func (h *harness) close() {
	h.once.Do(func() {
		h.mu.Lock()
		procs := make([]*child, 0, len(h.procs))
		for c := range h.procs {
			procs = append(procs, c)
		}
		h.mu.Unlock()
		for _, c := range procs {
			c.cmd.Process.Kill()
			<-c.done
		}
		os.RemoveAll(h.tmp)
	})
}

// start launches a child that close will reap if the run ends early. The
// kernel kills it too should the benchmark itself be killed.
func (h *harness) start(cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	h.mu.Lock()
	h.procs[c] = struct{}{}
	h.mu.Unlock()
	go func() {
		c.err = cmd.Wait()
		h.mu.Lock()
		delete(h.procs, c)
		h.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// build compiles ./cmd/<name> of the repository into .bench_build/bin and
// returns the binary's path and how long the build took.
func (h *harness) build(name string) (string, time.Duration, error) {
	out := filepath.Join(h.work, "bin", name)
	t0 := time.Now()
	c := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	c.Dir = h.root
	if b, err := c.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/%s: %w\n%s", name, err, b)
	}
	return out, time.Since(t0), nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// daemon is one running `served` process.
type daemon struct {
	proc         *child
	api, ops     string // base URLs
	stderr       bytes.Buffer
	bootToListen time.Duration
}

// startDaemon boots the real served binary on loopback for one topology,
// with drift retraining off so no background trainer steals a core
// mid-measurement, and waits until its API listener answers.
func (h *harness) startDaemon(bin, topo string, seed int64) (*daemon, error) {
	api, err := freePort()
	if err != nil {
		return nil, err
	}
	ops, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{api: "http://" + api, ops: "http://" + ops}
	cmd := exec.Command(bin,
		"-topos", topo, "-addr", api, "-opsaddr", ops, "-scale", "fast",
		"-T", fmt.Sprint(serveT), "-H", fmt.Sprint(serveH), "-epochs", fmt.Sprint(serveEpochs),
		"-batch", fmt.Sprint(serveBatch), "-seed", fmt.Sprint(seed),
		"-drift=false", "-loglevel", "error")
	cmd.Dir = h.tmp
	cmd.Stderr = &d.stderr
	t0 := time.Now()
	if d.proc, err = h.start(cmd); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(d.api + "/v1/topologies")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootToListen = time.Since(t0)
				return d, nil
			}
		}
		select {
		case <-d.proc.done: // port taken, bootstrap failure
			return nil, fmt.Errorf("served exited during boot: %v\n%s", d.proc.err, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("served did not listen on %s within 120s:\n%s", api, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.proc.cmd.Process.Pid }

func (d *daemon) kill() {
	d.proc.cmd.Process.Kill()
	<-d.proc.done
}

// stop sends SIGTERM and returns how long the graceful drain took; a
// daemon that has not exited after 20 s is killed and reported.
func (d *daemon) stop() (time.Duration, error) {
	t0 := time.Now()
	if err := d.proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case <-d.proc.done:
		if d.proc.err != nil {
			return time.Since(t0), fmt.Errorf("served exit: %w\n%s", d.proc.err, d.stderr.String())
		}
		return time.Since(t0), nil
	case <-time.After(20 * time.Second):
		d.kill()
		return time.Since(t0), errors.New("served did not drain within 20s; killed")
	}
}
