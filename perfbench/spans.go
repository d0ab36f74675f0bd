package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"setupsched"
)

// span is one timed interval recorded at a seam the benchmark owns: its
// own calls into a layer's public functions, its handler wrappers, its
// RoundTripper and its Observer.  Times are nanoseconds since the
// recorder's epoch; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the whole traced pass; they are
// written out only when the run ends, so recording costs one append.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// A nil *recorder is tracing switched off: id returns 0, add drops the
// span and timed just runs its function.

// id reserves a span id, so children can name their parent before the
// parent has ended.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span under a reserved id.
func (r *recorder) add(id int64, name string, op, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, Op: op, ID: id, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs f as a span and returns its id.
func (r *recorder) timed(name string, op, parent int64, f func(id int64)) int64 {
	if r == nil {
		f(0)
		return 0
	}
	id := r.id()
	start := time.Now()
	f(id)
	r.add(id, name, op, parent, start, time.Now())
	return id
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanIndex groups recorded spans for the per-layer arithmetic.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func (r *recorder) index() spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.  Overlapping children are counted once and children
// are clipped to the parent's interval, so the result is never negative
// and never exceeds the span.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// durMS returns every span's duration in milliseconds.
func durMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// selfMS returns every span's self time in milliseconds.
func (ix spanIndex) selfMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(selfTime(s, ix.children[s.ID])) / 1e6
	}
	return out
}

// selfTable prints count, p50 duration and p50 self time per span name:
// the self time of a root is the part of an op no layer accounts for.
func (ix spanIndex) selfTable(rep *report) {
	names := make([]string, 0, len(ix.byName))
	for n := range ix.byName {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		ss := ix.byName[n]
		rep.note("span %-20s n=%-6d p50=%9.4f ms  self p50=%9.4f ms", n, len(ss), median(durMS(ss)), median(ix.selfMS(ss)))
	}
}

// coreSolveStats derives the core layer's per-solve numbers from one
// solve span and its probe children: probes, summed probe time, search
// (first probe start to last probe finish) and build (last probe finish
// to solve return).
func coreSolveStats(solve span, children []span, s series) {
	var probes, probeNS int64
	first, last := int64(-1), int64(-1)
	for _, c := range children {
		if c.Name != "core.probe" {
			continue
		}
		probes++
		probeNS += c.dur()
		if first < 0 || c.Start < first {
			first = c.Start
		}
		last = max(last, c.End)
	}
	s.add("core.probes", float64(probes))
	if probes == 0 {
		s.add("core.probe_ms", 0)
		s.add("core.search_ms", 0)
		s.add("core.build_ms", float64(solve.dur())/1e6)
		return
	}
	s.add("core.probe_ms", float64(probeNS)/1e6)
	s.add("core.search_ms", float64(last-first)/1e6)
	s.add("core.build_ms", float64(solve.End-last)/1e6)
}

// probeSpans is the setupsched.Observer the traced passes attach: each
// dual test becomes a core.probe span under the solve span that ran it.
// One instance serves one solve at a time.
type probeSpans struct {
	rec    *recorder
	op     int64
	parent int64
	start  time.Time
}

// observer returns the probe observer for one solve span; nil (no
// observer at all) when tracing is off.
func (r *recorder) observer(op, parent int64) setupsched.Observer {
	if r == nil {
		return nil
	}
	return &probeSpans{rec: r, op: op, parent: parent}
}

func (p *probeSpans) ProbeStarted(setupsched.Rat) { p.start = time.Now() }

func (p *probeSpans) ProbeFinished(setupsched.Rat, bool) {
	p.rec.add(p.rec.id(), "core.probe", p.op, p.parent, p.start, time.Now())
}

func (p *probeSpans) SearchFinished(string, int) {}
