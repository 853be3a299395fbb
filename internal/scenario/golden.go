package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// SchemeMetrics is one scheme's golden-gated summary within a scenario.
// All metrics are lower-is-better. In offline mode the MLU fields
// describe oracle-normalized MLU; in fluid and closed-loop modes they
// describe raw offered-load MLU, and the loss and delay fields are
// populated from the fluid simulation.
type SchemeMetrics struct {
	Scheme string `json:"scheme"`
	// AvgMLU, P50MLU, P95MLU, MaxMLU summarize the per-snapshot MLU
	// series.
	AvgMLU float64 `json:"avgMLU"`
	P50MLU float64 `json:"p50MLU"`
	P95MLU float64 `json:"p95MLU"`
	MaxMLU float64 `json:"maxMLU"`
	// SevereCongestion is the fraction of snapshots with normalized MLU
	// above 2 (offline mode only).
	SevereCongestion float64 `json:"severeCongestion"`
	// MeanLoss and MaxLoss summarize the fluid loss-rate series (fluid
	// and closed-loop modes).
	MeanLoss float64 `json:"meanLoss"`
	MaxLoss  float64 `json:"maxLoss"`
	// P50Delay and P95Delay are quantiles of the per-interval
	// demand-weighted M/M/1 delay proxy (fluid and closed-loop modes).
	P50Delay float64 `json:"p50Delay"`
	P95Delay float64 `json:"p95Delay"`
}

// Metrics is one scenario's full golden record.
type Metrics struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	// From, To is the absolute evaluated snapshot range of the trace.
	From int `json:"from"`
	To   int `json:"to"`
	// Schemes holds one entry per evaluated scheme, in spec order.
	Schemes []SchemeMetrics `json:"schemes"`
	// Checksum is the IEEE CRC-32 of the canonical JSON encoding of this
	// struct with Checksum zeroed — the same self-integrity scheme as
	// te.PathStore, so a hand-edited or truncated golden reads as corrupt
	// instead of silently shifting the gate.
	Checksum uint32 `json:"checksum"`
}

// payload is m's canonical checksummed encoding (Checksum zeroed).
func (m *Metrics) payload() []byte {
	c := *m
	c.Checksum = 0
	data, err := json.Marshal(&c)
	if err != nil {
		// Metrics marshaling cannot fail: fixed struct of floats/strings.
		panic(err)
	}
	return data
}

// Seal computes and stores the checksum.
func (m *Metrics) Seal() { m.Checksum = crc32.ChecksumIEEE(m.payload()) }

// Verify reports whether the stored checksum matches the content.
func (m *Metrics) Verify() bool { return m.Checksum == crc32.ChecksumIEEE(m.payload()) }

// Scheme returns the named scheme's metrics, or nil.
func (m *Metrics) Scheme(name string) *SchemeMetrics {
	for i := range m.Schemes {
		if m.Schemes[i].Scheme == name {
			return &m.Schemes[i]
		}
	}
	return nil
}

// Store is a directory of golden files, one "<scenario>.json" per
// scenario.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a golden directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("scenario: empty golden dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(name string) string {
	return filepath.Join(st.dir, name+".json")
}

// Save seals and writes one golden atomically (write-temp + rename), so
// an interrupted bless never leaves a torn file behind.
func (st *Store) Save(m *Metrics) error {
	m.Seal()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(st.dir, "."+m.Scenario+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), st.path(m.Scenario))
}

// Load reads and integrity-checks one golden. A missing file is
// reported as os.ErrNotExist (callers distinguish "never blessed" from
// "corrupt").
func (st *Store) Load(name string) (*Metrics, error) {
	data, err := os.ReadFile(st.path(name))
	if err != nil {
		return nil, err
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("scenario: golden %s: %w", name, err)
	}
	if m.Scenario != name {
		return nil, fmt.Errorf("scenario: golden %s names scenario %q", name, m.Scenario)
	}
	if !m.Verify() {
		return nil, fmt.Errorf("scenario: golden %s failed its checksum (hand-edited or truncated; re-bless it)", name)
	}
	return &m, nil
}

// List returns the blessed scenario names, sorted.
func (st *Store) List() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(st.dir, "*.json"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(paths))
	for _, p := range paths {
		names = append(names, strings.TrimSuffix(filepath.Base(p), ".json"))
	}
	sort.Strings(names)
	return names, nil
}

// Diff is the outcome of comparing fresh metrics against a golden.
type Diff struct {
	// Moves lists what differs, one line each: every metric that moved
	// ("scheme metric old -> new (±x %)"), and any change to the
	// scenario name, mode, window or scheme list. It is empty exactly
	// when the gate passes.
	Moves []string
}

// OK reports whether the diff passes the gate.
func (d *Diff) OK() bool { return len(d.Moves) == 0 }

// Compare is the golden gate, and it is exact: fresh passes only when
// its canonical payload — what the checksum seals — is byte-equal to the
// golden's. Metrics are a pure function of the spec, so any move, up or
// down, is a change to what the scenario measures and is accepted only
// by a re-bless; the moves are listed for that re-bless's record. The
// float64 parameter is ignored: the benchmark module still passes it.
func Compare(golden, fresh *Metrics, _ float64) *Diff {
	d := &Diff{}
	if bytes.Equal(golden.payload(), fresh.payload()) {
		return d
	}
	move := func(format string, a ...any) { d.Moves = append(d.Moves, fmt.Sprintf(format, a...)) }
	if golden.Scenario != fresh.Scenario {
		move("scenario %q -> %q", golden.Scenario, fresh.Scenario)
	}
	if golden.Mode != fresh.Mode {
		move("mode %s -> %s", golden.Mode, fresh.Mode)
	}
	if golden.From != fresh.From || golden.To != fresh.To {
		move("window [%d,%d) -> [%d,%d)", golden.From, golden.To, fresh.From, fresh.To)
	}
	if gs, fs := schemeNames(golden), schemeNames(fresh); !slices.Equal(gs, fs) {
		move("schemes %v -> %v", gs, fs)
	}
	for i := range golden.Schemes {
		g := &golden.Schemes[i]
		f := fresh.Scheme(g.Scheme)
		if f == nil {
			continue
		}
		for _, mt := range []struct {
			name   string
			gv, fv float64
		}{
			{"avgMLU", g.AvgMLU, f.AvgMLU},
			{"p50MLU", g.P50MLU, f.P50MLU},
			{"p95MLU", g.P95MLU, f.P95MLU},
			{"maxMLU", g.MaxMLU, f.MaxMLU},
			{"severeCongestion", g.SevereCongestion, f.SevereCongestion},
			{"meanLoss", g.MeanLoss, f.MeanLoss},
			{"maxLoss", g.MaxLoss, f.MaxLoss},
			{"p50Delay", g.P50Delay, f.P50Delay},
			{"p95Delay", g.P95Delay, f.P95Delay},
		} {
			// Bits, not ==: +0 and −0 encode differently.
			if math.Float64bits(mt.gv) == math.Float64bits(mt.fv) {
				continue
			}
			if mt.gv == 0 {
				move("%s %s %v -> %v", g.Scheme, mt.name, mt.gv, mt.fv)
			} else {
				move("%s %s %v -> %v (%+.3g %%)", g.Scheme, mt.name, mt.gv, mt.fv, 100*(mt.fv-mt.gv)/mt.gv)
			}
		}
	}
	if len(d.Moves) == 0 {
		// A Metrics field the lines above do not itemize.
		move("canonical payloads differ")
	}
	return d
}

func schemeNames(m *Metrics) []string {
	names := make([]string, len(m.Schemes))
	for i := range m.Schemes {
		names[i] = m.Schemes[i].Scheme
	}
	return names
}
