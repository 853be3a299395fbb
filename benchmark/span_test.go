package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "encode", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "flush", Start: 30, End: 60},  // overlaps encode by 10
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},  // sticks out of the parent by 30
		{ID: 5, Parent: 1, Name: "inner", Start: 35, End: 38},  // wholly inside the overlap
		{ID: 6, Parent: 2, Name: "copy", Start: 12, End: 20},   // grandchild: only encode's cover
		{ID: 7, Parent: 99, Name: "orphan", Start: 0, End: 50}, // parent never recorded
	}
	self := selfTimes(spans)
	// request: 100 - (union [10,60] = 50) - (clipped [90,100] = 10) = 40.
	want := map[int]int64{1: 40, 2: 30 - 8, 3: 30, 4: 40, 5: 3, 6: 8, 7: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	by := selfByName(spans)
	if by["request"] != 40*time.Nanosecond || by["encode"] != 22*time.Nanosecond {
		t.Errorf("by name: request %v encode %v, want 40ns 22ns", by["request"], by["encode"])
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.record("x", 0, 0, time.Now(), time.Second) != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestTracerParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root := tr.start("request", 0, 7)
	kid := tr.start("encode", root, 7)
	tr.end(kid)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Req != 7 || s[1].Req != 7 {
		t.Fatalf("spans %+v: want a child pointing at its parent, both carrying request 7", s)
	}
	if s[0].End < s[1].End || s[1].End < s[1].Start {
		t.Errorf("spans %+v are not nested in time", s)
	}
}
