package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.  The zero value
// is ready for use; all methods are lock-free and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.  The zero value is ready for
// use; all methods are lock-free and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with atomic recording and
// quantile extraction.  Observe is lock-free and allocation-free, so it
// is safe on solve hot paths; the read side (Quantile, Snapshot) takes a
// best-effort atomic snapshot that may be torn across concurrent
// observations by at most the in-flight updates — fine for monitoring,
// which is the only consumer.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits, CAS-maximized
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds.  An implicit +Inf overflow bucket is always appended.  It
// panics on an empty, non-finite or non-ascending bound list — histogram
// shapes are static configuration, not runtime input.  Non-finite bounds
// are rejected explicitly: an explicit +Inf bound would duplicate the
// implicit overflow bucket's le="+Inf" exposition series, and a NaN
// bound would slip through a pure ascending check (every NaN comparison
// is false) and then swallow all observations routed to it.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram bound %d is %g; bounds must be finite (the +Inf overflow bucket is implicit)", i, b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %g <= %g", i, b, bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// DefaultLatencyBuckets returns the bucket bounds used for solve and
// request latencies, in seconds: 100µs up to 10s, roughly 1-2.5-5 per
// decade.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Observe records one value.  It performs no allocations and takes no
// locks.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank; observations
// in the +Inf overflow bucket are attributed to the observed maximum.
// Returns 0 before any observation.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q > 1 || math.IsNaN(q) {
		q = 1
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= target {
			if i == len(h.bounds) { // overflow bucket
				return h.Max()
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (target - cum) / n
			est := lower + (upper-lower)*frac
			// Clamp to the tracked maximum unconditionally: with total>0
			// a max of 0 means every sample was <= 0, and the bucket
			// interpolation would overshoot the true quantile.
			if m := h.Max(); est > m {
				return m
			}
			return est
		}
		cum += n
	}
	return h.Max()
}

// BucketSnapshot is one exposed bucket: the upper bound and the
// cumulative count of observations at or below it.
type BucketSnapshot struct {
	UpperBound float64 // +Inf for the overflow bucket
	Cumulative uint64
}

// Snapshot returns the cumulative bucket counts, total count and sum, as
// the Prometheus exposition needs them.  The count is the +Inf bucket's
// cumulative total rather than a separate read of the count field:
// Observe bumps a bucket before the count, so a concurrent snapshot could
// otherwise expose a _count one below its le="+Inf" bucket.
func (h *Histogram) Snapshot() (buckets []BucketSnapshot, count uint64, sum float64) {
	buckets = make([]BucketSnapshot, len(h.counts))
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		buckets[i] = BucketSnapshot{UpperBound: ub, Cumulative: cum}
	}
	return buckets, cum, h.Sum()
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered series: a full series name (which may carry a
// fixed label set, e.g. `sched_cache_hits_total{cache="results"}`), the
// label-free family name it belongs to, and the backing value.
type metric struct {
	name   string // full series name including any {labels}
	family string // name up to the label block
	labels string // inside of the {...} block, "" when unlabeled
	help   string
	kind   metricKind

	c *Counter
	g *Gauge
	f func() float64
	h *Histogram
}

// Registry names metrics and renders them in Prometheus text exposition
// format.  Registration takes a lock; recording into the returned
// metrics is lock-free.  Registering the same series name twice returns
// the original metric (get-or-create), so independent subsystems can
// share one series; a name reuse across different metric kinds panics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
	runtime bool
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, kindCounter, func() *metric {
		return &metric{c: &Counter{}}
	})
	return m.c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, kindGauge, func() *metric {
		return &metric{g: &Gauge{}}
	})
	return m.g
}

// GaugeFunc registers a gauge series whose value is read from f at
// exposition time — for cheap derived values such as cache sizes.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, kindGaugeFunc, func() *metric {
		return &metric{f: f}
	})
}

// Histogram registers (or returns the existing) histogram series over
// the given bucket bounds (see NewHistogram).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	m := r.register(name, help, kindHistogram, func() *metric {
		return &metric{h: NewHistogram(bounds...)}
	})
	return m.h
}

// EnableRuntimeMetrics appends Go runtime series (goroutines, heap, GC
// pauses) to every exposition of this registry.
func (r *Registry) EnableRuntimeMetrics() {
	r.mu.Lock()
	r.runtime = true
	r.mu.Unlock()
}

func (r *Registry) register(name, help string, kind metricKind, build func() *metric) *metric {
	family, labels, err := splitSeriesName(name)
	if err != nil {
		panic("obs: " + err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: series %s re-registered as a different metric kind", name))
		}
		return m
	}
	// All series of one family must share kind and help: the exposition
	// emits one # TYPE line per family.
	for _, m := range r.metrics {
		if m.family == family && m.kind != kind {
			panic(fmt.Sprintf("obs: family %s mixes metric kinds", family))
		}
	}
	m := build()
	m.name, m.family, m.labels, m.help, m.kind = name, family, labels, help, kind
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// splitSeriesName splits `family{labels}` and validates the family name
// against the Prometheus metric-name charset.
func splitSeriesName(name string) (family, labels string, err error) {
	family = name
	if i := indexByte(name, '{'); i >= 0 {
		if len(name) < i+2 || name[len(name)-1] != '}' {
			return "", "", fmt.Errorf("malformed series name %q", name)
		}
		family, labels = name[:i], name[i+1:len(name)-1]
		if labels == "" {
			return "", "", fmt.Errorf("empty label block in series name %q", name)
		}
	}
	if family == "" {
		return "", "", fmt.Errorf("empty metric name in %q", name)
	}
	for i := 0; i < len(family); i++ {
		c := family[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return "", "", fmt.Errorf("invalid metric name %q", family)
		}
	}
	return family, labels, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// families groups the registered metrics by family, preserving first-
// registration order, so the exposition emits one HELP/TYPE header per
// family with all its series consecutive.
func (r *Registry) families() [][]*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	order := map[string]int{}
	var out [][]*metric
	for _, m := range r.metrics {
		if i, ok := order[m.family]; ok {
			out[i] = append(out[i], m)
			continue
		}
		order[m.family] = len(out)
		out = append(out, []*metric{m})
	}
	return out
}

// P50P90P99 is a helper for summaries printed by CLIs: it returns the
// histogram's p50, p90 and p99 in one call.
func (h *Histogram) P50P90P99() (p50, p90, p99 float64) {
	return h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
}
