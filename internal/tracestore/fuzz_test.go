package tracestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"figret/internal/traffic"
)

// seedImages builds the checked-in seed corpus for FuzzReadBlock: one
// well-formed store image per interesting shape, plus truncated,
// bit-flipped and foreign-version variants (a newer version, and the
// header of the version-1 block layout) — each produced by the live
// Writer, so the corpus can never drift from the format it exercises
// (the wire-corpus discipline). Each entry becomes
// testdata/fuzz/FuzzReadBlock/<name>.
func seedImages(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	build := func(n, T int) []byte {
		tr := traffic.NewTrace(n)
		for i := 0; i < T; i++ {
			d := make([]float64, tr.Pairs.Count())
			for j := range d {
				d[j] = float64(i*100+j) / 8
			}
			tr.AppendOwned(d)
		}
		path := filepath.Join(dir, fmt.Sprintf("seed-%d-%d.fgt", n, T))
		if err := WriteTrace(path, tr, Options{}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	images := map[string][]byte{}
	images["empty"] = build(3, 0)
	images["single"] = build(3, 1)
	images["full_block"] = build(3, 2)
	multi := build(3, 5)
	images["multi"] = multi
	rec := int(recordSize(3))

	images["truncated"] = append([]byte(nil), multi[:len(multi)-10]...)

	flipped := append([]byte(nil), multi...)
	flipped[headerBytes+rec+9] ^= 0x10 // a payload bit of record 1
	images["bitflip_payload"] = flipped

	flippedCRC := append([]byte(nil), multi...)
	flippedCRC[headerBytes+3*rec-1] ^= 0x01 // a CRC bit of record 2
	images["bitflip_record_crc"] = flippedCRC

	flippedHdr := append([]byte(nil), multi...)
	flippedHdr[13] ^= 0x01 // a bit of n
	images["bitflip_header"] = flippedHdr

	images["foreign_version"] = foreignVersion(multi)
	images["version1"] = version1Header(3, 2)
	return images
}

// corpusFile renders one seed in the native Go fuzzing corpus encoding.
func corpusFile(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// TestFuzzSeedCorpus pins the checked-in corpus byte-for-byte to
// seedImages, so the seeds can never drift from the writer they
// exercise. Regenerate after a deliberate format change with
//
//	TRACESTORE_SEED_REGEN=1 go test ./internal/tracestore -run TestFuzzSeedCorpus
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadBlock")
	images := seedImages(t)
	var names []string
	for name := range images {
		names = append(names, name)
	}
	sort.Strings(names)
	if os.Getenv("TRACESTORE_SEED_REGEN") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), corpusFile(images[name]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("seed %s missing (regenerate with TRACESTORE_SEED_REGEN=1): %v", name, err)
		}
		if want := corpusFile(images[name]); string(got) != string(want) {
			t.Errorf("seed %s stale: corpus file does not match the current writer (regenerate with TRACESTORE_SEED_REGEN=1)", name)
		}
		// Every seed must hold its advertised property: intact images read
		// fully, damaged ones error without panicking.
		err = readWholeImage(images[name])
		switch name {
		case "truncated", "bitflip_payload", "bitflip_record_crc", "bitflip_header", "foreign_version", "version1":
			if err == nil {
				t.Errorf("seed %s: damaged image read cleanly", name)
			}
		default:
			if err != nil {
				t.Errorf("seed %s: well-formed image rejected: %v", name, err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if _, ok := images[ent.Name()]; !ok {
			t.Errorf("unexpected corpus file %s: add it to seedImages or delete it", ent.Name())
		}
	}
}

// readWholeImage drives every reader path over a store image: open,
// then every snapshot through At, which reads and checks each record. It
// must return an error or succeed — never panic — for any input
// whatsoever.
func readWholeImage(data []byte) error {
	r, err := newReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	for i := int64(0); i < r.Len(); i++ {
		s, err := r.At(i)
		if err != nil {
			return err
		}
		if len(s) != r.s.pairCount {
			return fmt.Errorf("snapshot %d has %d entries, want %d", i, len(s), r.s.pairCount)
		}
	}
	return nil
}

// FuzzReadBlock feeds arbitrary bytes through the whole reader:
// header and size validation, record checksums and snapshot copies. The
// invariant is the wire decoder's: corrupt, truncated, hostile or
// foreign-version input surfaces as an error, never a panic or an
// out-of-bounds access.
func FuzzReadBlock(f *testing.F) {
	// Seeds beyond the checked-in corpus: pathological tiny inputs.
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = readWholeImage(data)
	})
}
