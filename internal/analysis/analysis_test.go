package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectedViolationCaught proves the gate has teeth: a seeded
// violation (the corpus's map-range shape) written into a package that
// claims a real deterministic import path is flagged by the production
// DefaultSuite, and the identical code under a non-deterministic path is
// not.
func TestInjectedViolationCaught(t *testing.T) {
	const src = `package nn

func sum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "injected.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}

	pkgs, err := loader.LoadDir(dir, "figret/internal/nn")
	if err != nil {
		t.Fatal(err)
	}
	diags := DefaultSuite().Run(pkgs)
	if len(diags) != 1 || diags[0].Check != "detrange" {
		t.Fatalf("injected map range into figret/internal/nn: got %v, want one detrange diagnostic", diags)
	}

	pkgs, err = loader.LoadDir(dir, "figret/internal/unscoped")
	if err != nil {
		t.Fatal(err)
	}
	if diags := DefaultSuite().Run(pkgs); len(diags) != 0 {
		t.Fatalf("same code outside the deterministic scope: got %v, want none", diags)
	}
}

// TestInjectedWireDiscardCaught seeds a discarded wire decode error in a
// package under any path (errwire is module-wide), and a discarded error
// of serve's JSON body decoders, which errwire names one by one.
func TestInjectedWireDiscardCaught(t *testing.T) {
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, src, callee string }{
		{"figret/internal/anywhere", `package anywhere

import "figret/internal/wire"

func drop(p []byte) {
	var m wire.Hello
	_ = wire.DecodeHello(p, &m)
}
`, "DecodeHello"},
		{"figret/internal/serve", `package serve

func decodeSnapshotJSON(data []byte, v *int) error { return nil }

func drop(p []byte) {
	var v int
	decodeSnapshotJSON(p, &v)
}
`, "decodeSnapshotJSON"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "drop.go"), []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.LoadDir(dir, c.path)
		if err != nil {
			t.Fatal(err)
		}
		diags := DefaultSuite().Run(pkgs)
		if len(diags) != 1 || diags[0].Check != "errwire" {
			t.Fatalf("injected discard of %s: got %v, want one errwire diagnostic", c.callee, diags)
		}
		if !strings.Contains(diags[0].Message, c.callee) {
			t.Fatalf("diagnostic does not name the callee: %s", diags[0].Message)
		}
	}
}

// TestDirectiveScope pins the suppression rules: a directive covers its
// own line and the next, requires a reason, must name a known check, and
// must suppress something.
func TestDirectiveScope(t *testing.T) {
	const src = `package nn

func a(m map[int]int) int {
	n := 0
	//figret:allow(detrange) order-independent integer count
	for range m {
		n++
	}
	return n
}

func b(m map[int]int) int {
	n := 0
	for range m { //figret:allow(detrange) same-line form also covers
		n++
	}
	return n
}

func c(m map[int]int) int {
	n := 0
	//figret:allow(detrange) too far away: one line of reach only

	for range m {
		n++
	}
	return n
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "scope.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(dir, "figret/internal/nn")
	if err != nil {
		t.Fatal(err)
	}
	diags := DefaultSuite().Run(pkgs)
	// Function c: the detrange hit survives (directive out of reach) and
	// the directive itself is reported unused.
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (stale directive + uncovered range): %v", len(diags), diags)
	}
	if diags[0].Check != AllowCheck || !strings.Contains(diags[0].Message, "unused") {
		t.Fatalf("want unused-allow first, got %v", diags[0])
	}
	if diags[1].Check != "detrange" {
		t.Fatalf("want surviving detrange hit, got %v", diags[1])
	}
}

// TestLoadModule loads every package of the module the way cmd/figretvet
// does and requires the tree to be clean — the in-repo version of the CI
// gate, so `go test` alone catches a violation before CI runs the CLI.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the walker is missing directories", len(pkgs))
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	for _, must := range []string{"figret/internal/nn", "figret/internal/wire", "figret/internal/serve", "figret/cmd/figretvet", "figret"} {
		found := false
		for _, p := range paths {
			if p == must {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("package %s not loaded; have %v", must, paths)
		}
	}
	if diags := DefaultSuite().Run(pkgs); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("%s", d)
		}
		t.Fatal("the tree must be figretvet-clean (fix or annotate with //figret:allow)")
	}
}
