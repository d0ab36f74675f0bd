package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(100, 200)
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(110, 120), sp(150, 170)}, 70},
		{"overlapping counted once", []span{sp(110, 140), sp(130, 160)}, 50},
		{"nested", []span{sp(110, 190), sp(120, 130)}, 20},
		{"clipped to the parent", []span{sp(50, 120), sp(180, 250)}, 60},
		{"outside the parent", []span{sp(0, 50), sp(200, 300)}, 100},
		{"covering", []span{sp(90, 210)}, 0},
		{"unsorted", []span{sp(170, 180), sp(110, 115), sp(112, 130)}, 70},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCoreSolveStats(t *testing.T) {
	solve := sp(0, 100)
	probe := func(start, end int64) span { s := sp(start, end); s.Name = "core.probe"; return s }
	s := series{}
	coreSolveStats(solve, []span{probe(10, 20), probe(30, 50)}, s)
	coreSolveStats(solve, nil, s)
	ms := func(ns float64) float64 { return ns / 1e6 }
	want := map[string][]float64{
		"core.probes":    {2, 0},
		"core.probe_ms":  {ms(30), 0},
		"core.search_ms": {ms(40), 0},
		"core.build_ms":  {ms(50), ms(100)},
	}
	for name, w := range want {
		got := s[name]
		if len(got) != 2 || got[0] != w[0] || got[1] != w[1] {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestRecorderParentsChildren(t *testing.T) {
	rec := newRecorder()
	root := rec.id()
	start := time.Now()
	child := rec.timed("child", 7, root, func(int64) {})
	rec.add(root, "root", 7, 0, start, time.Now())
	ix := rec.index()
	if len(ix.byName["root"]) != 1 || len(ix.children[root]) != 1 || ix.children[root][0].ID != child {
		t.Fatalf("index: %+v", ix)
	}
	if self := ix.selfMS(ix.byName["root"])[0]; self < 0 {
		t.Errorf("root self time %g", self)
	}
}
