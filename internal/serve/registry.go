// Package serve is the online TE serving subsystem: it wraps the offline
// stack — trained figret models, the te reroute machinery, the drift
// detector and the memoized omniscient oracle — into a running controller
// service. A Registry holds versioned model checkpoints per topology with
// atomic hot-swap and rollback; a Controller (one goroutine per topology)
// ingests streamed demand snapshots into a sliding window, serves routing
// decisions from the active checkpoint, reroutes around reported link
// failures, rate-limits configuration churn, and triggers background
// retraining when the drift detector fires; Server exposes the whole thing
// over an HTTP/JSON API that Replay can drive closed-loop from a recorded
// trace. The offline components are used unchanged — the server is purely
// additive, so anything trained or evaluated offline serves verbatim.
//
// The path sets registered with AddTopology are the serving side of the
// shared candidate-path precomputation layer (te.NewPathSetOpt +
// te.PathStore, DESIGN.md §8): cmd/served builds them through the same
// parallel, cache-backed constructor as the trainer and the evaluation
// engine, so a daemon restarting against a warm cache skips the Yen solves
// that otherwise dominate startup.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"figret/internal/figret"
	"figret/internal/te"
)

// Checkpoint is one immutable registry entry: a model version only the
// registry holds (parsed from an upload, or a snapshot of an installed
// model), so nothing trains it while decision paths read its weights
// concurrently (figret.Model.PredictAt is safe for concurrent use).
type Checkpoint struct {
	// Version is the registry-assigned monotonically increasing id (1-based
	// per topology).
	Version int
	// Source records how the checkpoint arrived: "bootstrap", "upload" or
	// "retrain".
	Source string
	// Bytes sizes the checkpoint in the listing: an upload's body length,
	// 8 × the parameter count for an install. The daemon never reads it.
	Bytes int
	// Model is the validated model this checkpoint serves.
	Model *figret.Model
}

// CheckpointInfo is the exported metadata of one registry entry.
type CheckpointInfo struct {
	Version int    `json:"version"`
	Source  string `json:"source"`
	Bytes   int    `json:"bytes"`
	Active  bool   `json:"active"`
}

// topoModels is one topology's version stack.
type topoModels struct {
	ps       *te.PathSet
	versions []*Checkpoint
	next     int
	active   atomic.Pointer[Checkpoint]
}

// Registry holds versioned model checkpoints for every served topology.
// Reads of the active checkpoint are a single atomic load (the decision
// hot path); installs, uploads and rollbacks are serialized per registry
// and swap the active pointer atomically, so a decision in flight keeps
// the checkpoint it grabbed and the next decision sees the new one —
// hot-swap never blocks or drops a request.
type Registry struct {
	mu    sync.Mutex
	topos map[string]*topoModels
	tel   *Telemetry
}

// SetTelemetry attaches the observability instrument set: checkpoint
// installs and rollbacks are counted per topology and source. A nil
// Telemetry (the default) keeps the registry unobserved.
func (r *Registry) SetTelemetry(t *Telemetry) {
	r.mu.Lock()
	r.tel = t
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{topos: make(map[string]*topoModels)}
}

// AddTopology registers a topology's path set. Checkpoints can only be
// installed for registered topologies, and every install is validated
// against this path set.
func (r *Registry) AddTopology(name string, ps *te.PathSet) error {
	if ps == nil {
		return fmt.Errorf("serve: nil path set for topology %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.topos[name]; ok {
		return fmt.Errorf("serve: topology %q already registered", name)
	}
	r.topos[name] = &topoModels{ps: ps, next: 1}
	return nil
}

// Topologies lists registered topology names, sorted.
func (r *Registry) Topologies() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.topos))
	for name := range r.topos {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PathSet returns the registered path set for a topology, or nil.
func (r *Registry) PathSet(topo string) *te.PathSet {
	if tm := r.stack(topo); tm != nil {
		return tm.ps
	}
	return nil
}

// Install activates an independent, validated snapshot of m
// (figret.Model.Snapshot) as the topology's next version: bitwise the
// model an Upload of m.MarshalJSON() would serve, rejected for whatever
// that upload would be rejected for, and m stays the caller's to train.
func (r *Registry) Install(topo string, m *figret.Model, source string) (*Checkpoint, error) {
	return r.InstallIf(topo, m, source, nil)
}

// InstallIf is Install gated on the active checkpoint when expect is
// non-nil: the new version is only activated while expect is still
// serving, so a slow background producer (the drift retrainer) cannot
// silently supersede a checkpoint installed while it was working. It
// returns ErrSuperseded otherwise, before copying m if expect is already
// gone on entry.
func (r *Registry) InstallIf(topo string, m *figret.Model, source string, expect *Checkpoint) (*Checkpoint, error) {
	tm := r.stack(topo)
	if tm == nil {
		return nil, fmt.Errorf("serve: unknown topology %q", topo)
	}
	if expect != nil && tm.active.Load() != expect {
		return nil, fmt.Errorf("serve: %q: %w", topo, ErrSuperseded)
	}
	snap, err := m.Snapshot(tm.ps)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint rejected for %q: %w", topo, err)
	}
	return r.activate(topo, tm, &Checkpoint{Source: source, Bytes: 8 * snap.Net.NumParams(), Model: snap}, expect)
}

// ErrSuperseded reports an InstallIf whose expected incumbent was no
// longer the active checkpoint.
var ErrSuperseded = errors.New("active checkpoint changed")

// Upload validates a serialized checkpoint against the topology's path set
// and atomically activates it as the next version — the one place the
// registry parses JSON: where bytes arrive from outside the process.
func (r *Registry) Upload(topo string, data []byte, source string) (*Checkpoint, error) {
	tm := r.stack(topo)
	if tm == nil {
		return nil, fmt.Errorf("serve: unknown topology %q", topo)
	}
	m, err := figret.LoadModel(tm.ps, data)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint rejected for %q: %w", topo, err)
	}
	return r.activate(topo, tm, &Checkpoint{Source: source, Bytes: len(data), Model: m}, nil)
}

// stack returns a topology's version stack, nil when it is unregistered.
// The stack's path set is immutable after AddTopology, so a checkpoint's
// model — the expensive part — is built outside the registry lock and
// never stalls another topology's Active reads (the decision hot path).
func (r *Registry) stack(topo string) *topoModels {
	r.mu.Lock()
	tm := r.topos[topo]
	r.mu.Unlock()
	return tm
}

// activate assigns ck the topology's next version and swaps it in. When
// expect is non-nil the activation is conditional on it still being
// active.
func (r *Registry) activate(topo string, tm *topoModels, ck *Checkpoint, expect *Checkpoint) (*Checkpoint, error) {
	r.mu.Lock()
	if expect != nil && tm.active.Load() != expect {
		r.mu.Unlock()
		return nil, fmt.Errorf("serve: %q: %w", topo, ErrSuperseded)
	}
	ck.Version = tm.next
	tm.next++
	tm.versions = append(tm.versions, ck)
	tm.active.Store(ck)
	// Retention: drop the oldest retired versions beyond the bound so a
	// long-running daemon with drift retraining cannot grow without
	// limit. ck, the active checkpoint, is the newest and never pruned.
	if over := len(tm.versions) - retainVersions; over > 0 {
		tm.versions = slices.Delete(tm.versions, 0, over)
	}
	tel := r.tel
	r.mu.Unlock()
	if tel != nil {
		tel.topo(topo).install(ck.Source)
	}
	return ck, nil
}

// retainVersions bounds each topology's checkpoint stack; older retired
// versions are pruned on install (rollback targets beyond it are gone,
// which is the price of bounded memory on multi-MB checkpoints).
const retainVersions = 16

// Active returns the topology's currently served checkpoint (nil when none
// is installed). This is the decision hot path: a brief lookup in the
// append-only topology map plus one atomic load — never blocked by
// checkpoint deserialization (see Upload).
func (r *Registry) Active(topo string) *Checkpoint {
	if tm := r.stack(topo); tm != nil {
		return tm.active.Load()
	}
	return nil
}

// Get returns the topology's checkpoint with the given version, or nil.
// Retired (rolled-back) versions are not found.
func (r *Registry) Get(topo string, version int) *Checkpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	tm := r.topos[topo]
	if tm == nil {
		return nil
	}
	for _, ck := range tm.versions {
		if ck.Version == version {
			return ck
		}
	}
	return nil
}

// Rollback retires the active checkpoint and re-activates its predecessor
// on the version stack. The retired version is removed (a rollback is a
// statement that the checkpoint is bad); it errors when fewer than two
// versions exist.
func (r *Registry) Rollback(topo string) (*Checkpoint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tm := r.topos[topo]
	if tm == nil {
		return nil, fmt.Errorf("serve: unknown topology %q", topo)
	}
	cur := tm.active.Load()
	if cur == nil {
		return nil, fmt.Errorf("serve: %q has no active checkpoint", topo)
	}
	idx := -1
	for i, ck := range tm.versions {
		if ck == cur {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return nil, fmt.Errorf("serve: %q has no earlier checkpoint to roll back to", topo)
	}
	prev := tm.versions[idx-1]
	tm.versions = append(tm.versions[:idx], tm.versions[idx+1:]...)
	tm.active.Store(prev)
	if r.tel != nil {
		r.tel.topo(topo).rollbacks.Inc()
	}
	return prev, nil
}

// List returns the topology's checkpoint metadata in version order.
func (r *Registry) List(topo string) []CheckpointInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	tm := r.topos[topo]
	if tm == nil {
		return nil
	}
	cur := tm.active.Load()
	out := make([]CheckpointInfo, len(tm.versions))
	for i, ck := range tm.versions {
		out[i] = CheckpointInfo{
			Version: ck.Version,
			Source:  ck.Source,
			Bytes:   ck.Bytes,
			Active:  ck == cur,
		}
	}
	return out
}
