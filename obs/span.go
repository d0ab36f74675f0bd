package obs

import (
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"

	"setupsched/sched"
)

// Span is one node of a solve trace.  Timestamps are microseconds since
// the recorder's start (monotonic clock), so a span tree is self-
// contained and serializes to compact JSON.
//
// Span names map onto the phases of the Deppert–Jansen near-linear
// algorithms: "solve" is the root, "prepare" the O(n) preprocessing pass
// (class work sums, maxima, trivial bounds), "search" the dual-
// approximation threshold search with one "probe" child per dual-test
// evaluation, and "build" the schedule construction after the final
// accepted guess.
type Span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// T is the makespan guess of a "probe" span.
	T string `json:"t,omitempty"`
	// Outcome is "accept" or "reject" on a "probe" span.
	Outcome string `json:"outcome,omitempty"`
	// Algorithm names the search on the root span (e.g. "split-jump").
	Algorithm string `json:"algorithm,omitempty"`
	// Probes is the total dual-test count, set on the "search" span.
	Probes int `json:"probes,omitempty"`
	// TraceID binds the root span into a distributed trace (hex, 32
	// digits); children inherit it implicitly and carry only span ids.
	TraceID string `json:"trace_id,omitempty"`
	// SpanID is the span's identity within the trace (hex, 16 digits).
	SpanID string `json:"span_id,omitempty"`
	// Parent is the parent span's id — for a traced root, the remote
	// (wire) span of the caller on the other side of the hop.
	Parent string `json:"parent_span_id,omitempty"`
	// Shard names the process that recorded the span (set on wire-level
	// spans by the serving tier).
	Shard    string  `json:"shard,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// Duration returns the span's duration.
func (s *Span) Duration() time.Duration { return time.Duration(s.DurUS) * time.Microsecond }

// Child returns the first direct child with the given name, or nil.
func (s *Span) Child(name string) *Span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// PhaseDurations extracts the prepare/search/build phase durations from
// a recorded root span — the breakdown the slow-solve log and schedbench
// phase columns report.
func PhaseDurations(root *Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	if root == nil {
		return out
	}
	for _, c := range root.Children {
		out[c.Name] += c.Duration()
	}
	return out
}

// SpanRecorder assembles the span tree of ONE solve.  It implements the
// solver's probe-level Observer seam: attach it with
// setupsched.WithObserver (or stream.WithObserver) and read the finished
// tree with Root after the solve returns.  Phases outside the solver's
// event stream — the O(n) preparation in NewSolver — are bracketed
// explicitly with StartPhase.
//
// A recorder is single-use: one solve, then Root.  It is internally
// locked, so the solver's sequential event contract plus any concurrent
// StartPhase caller is safe, but events from two interleaved solves
// would produce a nonsense tree.
type SpanRecorder struct {
	mu   sync.Mutex
	t0   time.Time
	root *Span
	// search is created lazily at the first probe.
	search *Span
	// probe is the started-but-unfinished probe span: the solver finishes
	// each probe before it starts the next (the Observer contract).
	probe        *Span
	lastProbeEnd int64 // µs; end of the most recent probe
	closed       bool
	// traced is set by Trace; child span ids are then derived
	// deterministically from the root span id via the SplitMix64 stream
	// (unique within the trace, no RNG on the probe path).
	traced bool
	idSeed uint64
	idSeq  uint64
}

// NewSpanRecorder starts a recorder; the root "solve" span opens now.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{t0: time.Now(), root: &Span{Name: "solve"}}
}

func (r *SpanRecorder) now() int64 { return time.Since(r.t0).Microseconds() }

// Trace binds the recorder's tree into a distributed trace: the root
// "solve" span takes the context's trace and span ids with remoteParent
// (the caller's wire span, zero for a local root) as its parent, and
// every child span opened afterwards gets a unique span id derived
// deterministically from the root span id.  Call it right after
// NewSpanRecorder; spans opened before the call are stamped
// retroactively.
func (r *SpanRecorder) Trace(tc TraceContext, remoteParent SpanID) {
	if !tc.Valid() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traced = true
	r.idSeed = binary.BigEndian.Uint64(tc.SpanID[:])
	r.root.TraceID = tc.TraceID.String()
	r.root.SpanID = tc.SpanID.String()
	if !remoteParent.IsZero() {
		r.root.Parent = remoteParent.String()
	}
	var stamp func(parent *Span)
	stamp = func(parent *Span) {
		for _, c := range parent.Children {
			if c.SpanID == "" {
				c.SpanID = r.childID()
				c.Parent = parent.SpanID
			}
			stamp(c)
		}
	}
	stamp(r.root)
}

// childID mints the next child span id.  Caller holds r.mu.
func (r *SpanRecorder) childID() string {
	for {
		r.idSeq++
		v := splitmix64(r.idSeed + r.idSeq)
		if v == 0 {
			continue
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		return hex.EncodeToString(b[:])
	}
}

// bind stamps a freshly opened child span when traced.  Caller holds
// r.mu.
func (r *SpanRecorder) bind(sp, parent *Span) {
	if r.traced {
		sp.SpanID = r.childID()
		sp.Parent = parent.SpanID
	}
}

// StartPhase opens a named child span of the root (e.g. "prepare") and
// returns the function that closes it.
func (r *SpanRecorder) StartPhase(name string) func() {
	r.mu.Lock()
	sp := &Span{Name: name, StartUS: r.now()}
	r.bind(sp, r.root)
	r.root.Children = append(r.root.Children, sp)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		sp.DurUS = r.now() - sp.StartUS
		r.mu.Unlock()
	}
}

// ProbeStarted implements the Observer seam: it opens the "search" span
// on the first probe and a "probe" child per guess.
func (r *SpanRecorder) ProbeStarted(T sched.Rat) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	if r.search == nil {
		r.search = &Span{Name: "search", StartUS: now}
		r.bind(r.search, r.root)
		r.root.Children = append(r.root.Children, r.search)
	}
	sp := &Span{Name: "probe", StartUS: now, T: T.String()}
	r.bind(sp, r.search)
	r.search.Children = append(r.search.Children, sp)
	r.probe = sp
}

// ProbeFinished closes the open probe span.
func (r *SpanRecorder) ProbeFinished(_ sched.Rat, accepted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.lastProbeEnd = now
	sp := r.probe
	if sp == nil {
		return // unmatched finish; drop rather than corrupt the tree
	}
	r.probe = nil
	sp.DurUS = now - sp.StartUS
	if accepted {
		sp.Outcome = "accept"
	} else {
		sp.Outcome = "reject"
	}
}

// SearchFinished closes the search span at the last probe's end, books
// the remainder (schedule construction) as the "build" span, and closes
// the root.  The solver emits it once after a successful solve.
func (r *SpanRecorder) SearchFinished(algorithm string, probes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	if r.search != nil {
		r.search.DurUS = r.lastProbeEnd - r.search.StartUS
		r.search.Probes = probes
		// Book the build phase unconditionally: schedule construction
		// after the accepted guess can fit inside one microsecond tick,
		// and dropping the span then would lose the phase from
		// PhaseDurations and the slow-solve breakdown.
		build := &Span{
			Name: "build", StartUS: r.lastProbeEnd, DurUS: now - r.lastProbeEnd,
		}
		r.bind(build, r.root)
		r.root.Children = append(r.root.Children, build)
	}
	r.root.Algorithm = algorithm
	r.root.DurUS = now
	r.closed = true
}

// Root finalizes and returns the recorded tree.  If the solve never
// reported SearchFinished (error, cancellation), the root and any open
// spans are closed at the current time so the tree is still well-formed.
func (r *SpanRecorder) Root() *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		now := r.now()
		if r.probe != nil {
			r.probe.DurUS = now - r.probe.StartUS
			r.probe = nil
		}
		if r.search != nil && r.search.DurUS == 0 {
			r.search.DurUS = now - r.search.StartUS
		}
		r.root.DurUS = now
		r.closed = true
	}
	return r.root
}

// ProbeCounter is a zero-allocation Observer that counts finished dual
// tests into a Counter.  One ProbeCounter (boxed into the Observer
// interface once, at construction) can be shared by every solve of a
// server, so attaching metrics costs no per-request allocation.
type ProbeCounter struct {
	// C receives one Inc per finished probe.
	C *Counter
	// Searches, when non-nil, receives one Inc per completed search.
	Searches *Counter
}

func (p *ProbeCounter) ProbeStarted(sched.Rat) {}

func (p *ProbeCounter) ProbeFinished(sched.Rat, bool) { p.C.Inc() }

func (p *ProbeCounter) SearchFinished(string, int) {
	if p.Searches != nil {
		p.Searches.Inc()
	}
}
