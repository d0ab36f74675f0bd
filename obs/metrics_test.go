package obs

import (
	"math"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // values 0.5 .. 7.5
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	wantSum := 0.0
	for i := 0; i < 100; i++ {
		wantSum += float64(i%8) + 0.5
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	if h.Max() != 7.5 {
		t.Fatalf("max = %g, want 7.5", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 8 {
		t.Fatalf("p50 = %g out of plausible range", p50)
	}
	// Quantile must be monotone in q and capped by the observed max.
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		if v > h.Max() {
			t.Fatalf("quantile %g at q=%g exceeds max %g", v, q, h.Max())
		}
		prev = v
	}
}

func TestHistogramOverflowBucketUsesMax(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(50)
	h.Observe(100)
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("overflow quantile = %g, want observed max 100", got)
	}
}

// TestHistogramAllSamplesAboveFiniteBuckets pins the overflow-bucket
// clamp: when every sample lands past the last finite bound, every
// quantile — not just the tail — reports the tracked maximum instead of
// interpolating into an unbounded bucket.
func TestHistogramAllSamplesAboveFiniteBuckets(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	for _, v := range []float64{3, 7, 12, 25} {
		h.Observe(v)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 25 {
			t.Fatalf("Quantile(%g) = %g, want tracked max 25", q, got)
		}
	}
}

// TestHistogramAllZeroSamples pins the unconditional max clamp: a stream
// of zero-valued observations must not report a quantile interpolated
// above the largest sample.
func TestHistogramAllZeroSamples(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets()...)
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero quantile = %g, want 0", got)
	}
}

func TestHistogramRejectsNonFiniteBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		{1, 2, math.Inf(1)}, // would duplicate the implicit le="+Inf" series
		{math.Inf(-1), 1},
		{1, math.NaN(), 3}, // NaN defeats a pure ascending check
		{},
		{1, 1},
		{2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets()...)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets()...)
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-0.003) > 1e-12 {
		t.Fatalf("sum = %g, want 0.003", h.Sum())
	}
}

func TestHistogramObserveAllocationFree(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets()...)
	var c Counter
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.0042)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("Observe+Inc allocates %.1f per op, want 0", allocs)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("same series name returned distinct counters")
	}
	h1 := r.Histogram("lat_seconds", "lat", 1, 2)
	h2 := r.Histogram("lat_seconds", "lat", 1, 2)
	if h1 != h2 {
		t.Fatal("same series name returned distinct histograms")
	}
}

func TestRegistryLabeledSeriesShareFamily(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter(`cache_hits_total{cache="results"}`, "Cache hits.")
	hits2 := r.Counter(`cache_hits_total{cache="other"}`, "Cache hits.")
	if hits == hits2 {
		t.Fatal("distinct label sets must get distinct counters")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m_total", "m")
}

func TestSplitSeriesName(t *testing.T) {
	for _, tc := range []struct {
		in, family, labels string
		ok                 bool
	}{
		{"a_total", "a_total", "", true},
		{`a_total{x="1"}`, "a_total", `x="1"`, true},
		{`a_total{}`, "", "", false},
		{"", "", "", false},
		{"9bad", "", "", false},
		{"bad name", "", "", false},
	} {
		fam, lab, err := splitSeriesName(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("%q: err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && (fam != tc.family || lab != tc.labels) {
			t.Fatalf("%q: got (%q,%q), want (%q,%q)", tc.in, fam, lab, tc.family, tc.labels)
		}
	}
}
