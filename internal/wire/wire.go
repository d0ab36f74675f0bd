// Package wire reads the plain JSON form of solve requests without
// reflection.
//
// The plain form is what every client of the solve routes writes: one
// object whose keys are known, unescaped and unrepeated, and whose values
// are objects, arrays, numbers, unescaped ASCII strings and booleans,
// with only whitespace after the top-level value.  Where an integer is
// expected the number must be one of at most 18 digits; where a float is
// expected it may take any form JSON allows.  A Reader accepts exactly
// that form and gives up on anything else — escapes, non-ASCII bytes in
// strings, null, fractions and exponents where an integer is expected,
// unknown or case-variant keys (the caller decides which keys it knows),
// trailing bytes.  Callers then hand the same bytes to encoding/json, so
// every input outside the plain form keeps encoding/json's meaning and
// error.  On input a Reader accepts, encoding/json produces the same
// values; the differential fuzz targets of the serve and lb packages
// hold both tiers to that.
package wire

import (
	"strconv"

	"setupsched/sched"
)

// Reader reads one JSON document in the plain form.  Reading is
// failure-latching: a method that meets input outside the plain form
// marks the reader failed, More stops every loop, and End reports the
// failure, so a caller checks once, at the end.
//
// A Reader keeps scratch memory across Reset calls.  It is not safe for
// concurrent use.
type Reader struct {
	data []byte
	pos  int
	fail bool

	jobs    []int64     // every job of the instance being read, in order
	classes []classSpan // its classes, indexing into jobs
}

// classSpan is one class of the instance being read.
type classSpan struct {
	setup      int64
	start, end int  // the class's jobs are jobs[start:end]
	hasJobs    bool // the object had a "jobs" key
}

// Reset starts reading data.
func (r *Reader) Reset(data []byte) {
	r.data, r.pos, r.fail = data, 0, false
}

// End reports whether everything read so far was plain and nothing but
// whitespace follows it.
func (r *Reader) End() bool {
	r.ws()
	return !r.fail && r.pos == len(r.data)
}

func (r *Reader) ws() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// Begin consumes the opening delimiter of an object ('{') or an array
// ('[').
func (r *Reader) Begin(open byte) {
	r.ws()
	if r.pos < len(r.data) && r.data[r.pos] == open {
		r.pos++
		return
	}
	r.fail = true
}

// More reports whether the object or array being read has an element
// with index i (counted from 0), consuming the comma before it; at the
// closing delimiter it consumes that and reports false.  It reports
// false on a failed reader, so a loop
//
//	for i := 0; r.More('}', i); i++ { ... }
//
// always ends.
func (r *Reader) More(close byte, i int) bool {
	if r.fail {
		return false
	}
	r.ws()
	if r.pos < len(r.data) {
		switch c := r.data[r.pos]; {
		case c == close:
			r.pos++
			return false
		case i == 0:
			return true
		case c == ',':
			r.pos++
			return true
		}
	}
	r.fail = true
	return false
}

// plain reads a string of printable ASCII without escapes and returns
// its contents, which alias the input.
func (r *Reader) plain() []byte {
	r.ws()
	d := r.data
	if r.pos < len(d) && d[r.pos] == '"' {
		start := r.pos + 1
		for i := start; i < len(d); i++ {
			c := d[i]
			if c == '"' {
				r.pos = i + 1
				return d[start:i]
			}
			if c < 0x20 || c == '\\' || c >= 0x80 {
				break
			}
		}
	}
	r.fail = true
	return nil
}

// Key reads an object key and the colon after it.  The returned bytes
// alias the input.
func (r *Reader) Key() []byte {
	k := r.plain()
	r.ws()
	if r.pos < len(r.data) && r.data[r.pos] == ':' {
		r.pos++
		return k
	}
	r.fail = true
	return nil
}

// Str reads a string value into new memory.
func (r *Reader) Str() string { return string(r.plain()) }

// Int reads an integer of 1 to 18 digits, so it cannot overflow an
// int64.  A leading zero is only allowed as the whole number "0"; "-0"
// is left to encoding/json.
func (r *Reader) Int() int64 {
	r.ws()
	d, i := r.data, r.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(d) && isDigit(d[i]); i++ {
		n = n*10 + int64(d[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || d[start] == '0' && (digits > 1 || neg) {
		r.fail = true
		return 0
	}
	r.pos = i
	if neg {
		return -n
	}
	return n
}

// Float reads a number in any form JSON allows and parses it as
// encoding/json does for a float64, with strconv.ParseFloat.  A number
// out of the float64 range fails, leaving encoding/json to report it.
func (r *Reader) Float() float64 {
	tok := r.number()
	if r.fail {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail = true
		return 0
	}
	return f
}

// number reads a JSON number token,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it; the
// bytes alias the input.
func (r *Reader) number() []byte {
	r.ws()
	d, i := r.data, r.pos
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		i = r.digits(i)
	}
	if i < len(d) && d[i] == '.' {
		i = r.digits(i + 1)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		i = r.digits(i)
	}
	if r.fail {
		return nil
	}
	r.pos = i
	return d[start:i]
}

// digits returns the index after the run of digits starting at
// data[i], marking the reader failed when the run is empty.
func (r *Reader) digits(i int) int {
	start := i
	for i < len(r.data) && isDigit(r.data[i]) {
		i++
	}
	r.fail = r.fail || i == start
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Bool reads true or false.
func (r *Reader) Bool() bool {
	r.ws()
	rest := r.data[r.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.pos += 5
		return false
	}
	r.fail = true
	return false
}

// SkipScalar skips a string, number or boolean value.
func (r *Reader) SkipScalar() {
	r.ws()
	if r.pos >= len(r.data) {
		r.fail = true
		return
	}
	switch c := r.data[r.pos]; {
	case c == '"':
		r.plain()
	case c == 't' || c == 'f':
		r.Bool()
	default:
		r.number()
	}
}

// Instance reads an instance object, {"m": ..., "classes": [{"setup":
// ..., "jobs": [...]}, ...]}, into new memory: the classes in one exactly
// sized array, the jobs of every class in one shared backing array.  A
// key that is absent leaves its field nil and an empty array gives a
// non-nil empty slice, as encoding/json does.  It returns nil on a
// failed reader.
func (r *Reader) Instance() *sched.Instance {
	m, hasClasses := r.instance()
	if r.fail {
		return nil
	}
	in := &sched.Instance{M: m}
	if !hasClasses {
		return in
	}
	in.Classes = make([]sched.Class, len(r.classes))
	jobs := make([]int64, len(r.jobs))
	copy(jobs, r.jobs)
	for k, cs := range r.classes {
		in.Classes[k].Setup = cs.setup
		if cs.hasJobs {
			// Capped at the class's end, so appending to one class
			// cannot overwrite the next.
			in.Classes[k].Jobs = jobs[cs.start:cs.end:cs.end]
		}
	}
	return in
}

// instance reads an instance object into the scratch tables.
func (r *Reader) instance() (m int64, hasClasses bool) {
	r.jobs, r.classes = r.jobs[:0], r.classes[:0]
	var seen [2]bool
	r.Begin('{')
	for i := 0; r.More('}', i); i++ {
		k := 0
		switch string(r.Key()) {
		case "m":
			m = r.Int()
		case "classes":
			k = 1
			r.readClasses()
		default:
			r.fail = true
		}
		r.fail = r.fail || seen[k]
		seen[k] = true
	}
	return m, seen[1]
}

func (r *Reader) readClasses() {
	r.Begin('[')
	for i := 0; r.More(']', i); i++ {
		cs := classSpan{start: len(r.jobs)}
		var seen [2]bool
		r.Begin('{')
		for j := 0; r.More('}', j); j++ {
			k := 0
			switch string(r.Key()) {
			case "setup":
				cs.setup = r.Int()
			case "jobs":
				k = 1
				r.Begin('[')
				for n := 0; r.More(']', n); n++ {
					r.jobs = append(r.jobs, r.Int())
				}
			default:
				r.fail = true
			}
			r.fail = r.fail || seen[k]
			seen[k] = true
		}
		cs.end, cs.hasJobs = len(r.jobs), seen[1]
		r.classes = append(r.classes, cs)
	}
}
