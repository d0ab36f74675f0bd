package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so nearestRank must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
	}{
		{1, 50, 1, 0},
		{2, 50, 1, 1},
		{10, 50, 5, 5},
		{10, 90, 9, 1},
		{10, 91, 10, 0},
		{100, 99, 99, 1},
		{1000, 99, 990, 10},
		{1001, 99, 991, 10},
	} {
		got, beyond := nearestRank(seq(tc.n), tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("n=%d p%g: got %g with %d beyond, want %g with %d", tc.n, tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := tailPercentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := tailPercentile(seq(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples: %g, %v; want 990", v, err)
	}
	if _, err := tailPercentile(nil, 50); err == nil {
		t.Error("percentile of no samples must be refused")
	}
	if _, err := tailPercentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := tailPercentile(seq(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 20 samples: %g, %v; want 10", v, err)
	}
}

func TestClosedLoopRunsWholeBlocks(t *testing.T) {
	var ran []int
	lat, onClock := closedLoop(5, 3, 1<<30, time.Nanosecond, func(i int) time.Duration {
		ran = append(ran, i)
		return time.Millisecond
	})
	if len(lat) != 1002 || ran[0] != 5 || ran[len(ran)-1] != 1006 {
		t.Fatalf("ran %d ops from %d to %d; want 1002 ops (whole blocks of 3 past minOps) from 5", len(lat), ran[0], ran[len(ran)-1])
	}
	if onClock != 1002*time.Millisecond {
		t.Errorf("on-clock time %v", onClock)
	}
	lat, _ = closedLoop(0, 4, 10, time.Hour, func(int) time.Duration { return 1 })
	if len(lat) != 8 {
		t.Errorf("an exhausted op list of 10 in blocks of 4 must stop after 8 ops, ran %d", len(lat))
	}
}
