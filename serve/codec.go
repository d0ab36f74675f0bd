package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"setupsched/internal/wire"
	"setupsched/sched"
)

// The solve routes' JSON codec.  Requests in the plain form every client
// writes (see package wire) decode in one pass without reflection; any
// other body goes to json.Unmarshal on the same bytes, so it keeps
// encoding/json's meaning and error.  Responses are appended into pooled
// buffers straight from the solved *sched.Schedule, producing the bytes
// json.NewEncoder(w).Encode writes for the exported form.

// maxPooledBuf caps the buffers kept for reuse: a rare huge body or
// schedule is dropped after use instead of pinning its memory.
const maxPooledBuf = 1 << 20

var (
	readerPool = sync.Pool{New: func() any { return new(wire.Reader) }}
	bodyPool   = sync.Pool{New: func() any { return new([]byte) }}
	respPool   = sync.Pool{New: func() any { return new([]byte) }}
)

func putBuf(p *sync.Pool, b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		p.Put(b)
	}
}

// decodeRequest decodes one solve request body or batch line into req,
// which must be zero.  The result never aliases data.
func decodeRequest(data []byte, req *SolveRequest) error {
	rd := readerPool.Get().(*wire.Reader)
	ok := plainRequest(rd, data, req)
	rd.Reset(nil) // the pooled reader must not pin the body
	readerPool.Put(rd)
	if ok {
		return nil
	}
	*req = SolveRequest{}
	return json.Unmarshal(data, req)
}

// plainRequest reads a request in the plain form, reporting false on
// anything else: an unknown, case-variant or repeated key included.
func plainRequest(rd *wire.Reader, data []byte, req *SolveRequest) bool {
	rd.Reset(data)
	rd.Begin('{')
	var seen uint16
	for i := 0; rd.More('}', i); i++ {
		var bit uint16
		switch string(rd.Key()) {
		case "id":
			bit, req.ID = 1<<0, rd.Str()
		case "instance":
			bit, req.Instance = 1<<1, rd.Instance()
		case "variant":
			bit, req.Variant = 1<<2, rd.Str()
		case "algorithm":
			bit, req.Algorithm = 1<<3, rd.Str()
		case "epsilon":
			bit, req.Epsilon = 1<<4, rd.Float()
		case "timeout_ms":
			bit, req.TimeoutMS = 1<<5, rd.Int()
		case "include_schedule":
			bit, req.IncludeSchedule = 1<<6, rd.Bool()
		case "include_trace":
			bit, req.IncludeTrace = 1<<7, rd.Bool()
		case "include_spans":
			bit, req.IncludeSpans = 1<<8, rd.Bool()
		case "no_cache":
			bit, req.NoCache = 1<<9, rd.Bool()
		case "traceparent":
			bit, req.TraceParent = 1<<10, rd.Str()
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return rd.End()
}

// readRequest reads a request body into a pooled buffer, under the
// MaxBodyBytes limit, and decodes it into v: a solve request with
// decodeRequest, a session request with json.Unmarshal.  Either way,
// bytes after the JSON value are an error.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) error {
	bp := bodyPool.Get().(*[]byte)
	defer putBuf(&bodyPool, bp)
	body, err := readAll((*bp)[:0], http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	*bp = body
	if err != nil {
		return err
	}
	if req, ok := v.(*SolveRequest); ok {
		return decodeRequest(body, req)
	}
	return json.Unmarshal(body, v)
}

// readAll is io.ReadAll appending to b.  Like json.Decoder's buffer, b
// at least doubles whenever it fills, so its size follows the bytes that
// arrive and never a size that Content-Length merely claims.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, 2*cap(b)+512), b...)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// writeResponse writes resp as the JSON body of a response with the
// given status.  Like json.NewEncoder(w).Encode, it writes no body when
// resp holds a value JSON cannot represent (a NaN or infinite float).
func writeResponse(w http.ResponseWriter, status int, resp *SolveResponse) {
	bp := respPool.Get().(*[]byte)
	defer putBuf(&respPool, bp)
	b, err := appendResponse((*bp)[:0], resp)
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	if err == nil {
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	}
	w.WriteHeader(status)
	if err == nil {
		w.Write(b)
	}
}

// appendResponse appends the bytes json.NewEncoder(w).Encode writes,
// newline included, for resp as Server.Solve would return it: resp comes
// from handle, so its schedule and trace are in resp.schedule and
// resp.probes and the exported Schedule and Trace are unset.  On a value
// JSON cannot represent it returns b unchanged and the error.
func appendResponse(b []byte, resp *SolveResponse) ([]byte, error) {
	start := len(b)
	b = append(b, '{')
	key := func(name string) {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, '"', ':')
	}
	str := func(name, v string) {
		if v != "" {
			key(name)
			b = appendString(b, v)
		}
	}
	var bad bool
	float := func(name string, v float64, omitZero bool) {
		if v != 0 || !omitZero {
			key(name)
			b, bad = appendFloat(b, v), bad || math.IsNaN(v) || math.IsInf(v, 0)
		}
	}
	integer := func(name string, v int64) {
		if v != 0 {
			key(name)
			b = strconv.AppendInt(b, v, 10)
		}
	}
	str("id", resp.ID)
	str("variant", resp.Variant)
	str("algorithm", resp.Algorithm)
	str("makespan", resp.Makespan)
	float("makespan_float", resp.MakespanFloat, true)
	str("lower_bound", resp.LowerBound)
	float("lower_bound_float", resp.LowerBoundFloat, true)
	float("ratio", resp.Ratio, true)
	integer("probes", int64(resp.Probes))
	integer("machines", resp.Machines)
	integer("setups", resp.Setups)
	str("fingerprint", resp.Fingerprint)
	key("cached")
	b = strconv.AppendBool(b, resp.Cached)
	if resp.Warm {
		key("warm")
		b = append(b, "true"...)
	}
	if resp.SessionRev != 0 {
		key("session_rev")
		b = strconv.AppendUint(b, resp.SessionRev, 10)
	}
	str("trace_id", resp.TraceID)
	float("elapsed_ms", resp.ElapsedMS, false)
	if bad {
		return b[:start], &json.UnsupportedValueError{Str: "NaN or infinite float"}
	}
	if resp.schedule != nil {
		key("schedule")
		b = appendSchedule(b, resp.schedule, resp.Makespan)
	}
	if len(resp.probes) > 0 {
		key("trace")
		b = append(b, '[')
		for i := range resp.probes {
			if i > 0 {
				b = append(b, ',')
			}
			p := &resp.probes[i]
			b = append(p.T.Append(append(b, `{"t":"`...)), `","accepted":`...)
			b = append(strconv.AppendBool(b, p.Accepted), '}')
		}
		b = append(b, ']')
	}
	if resp.Spans != nil {
		// Span trees are rare (include_spans); encoding/json writes them.
		spans, err := json.Marshal(resp.Spans)
		if err != nil {
			return b[:start], err
		}
		key("spans")
		b = append(b, spans...)
	}
	str("error", resp.Error)
	return append(b, '}', '\n'), nil
}

// appendSchedule appends the ScheduleJSON form of sc, as scheduleJSON
// would build it with the same makespan.  Variant names, kinds and
// rationals need no escaping.
func appendSchedule(b []byte, sc *sched.Schedule, makespan string) []byte {
	b = append(b, `{"variant":"`...)
	b = append(b, sc.Variant.Short()...)
	b = append(b, `","makespan":"`...)
	b = append(b, makespan...)
	b = append(b, `","runs":[`...)
	for i := range sc.Runs {
		run := &sc.Runs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, run.Count, 10)
		b = append(b, `,"slots":[`...)
		for j := range run.Slots {
			sl := &run.Slots[j]
			if j > 0 {
				b = append(b, ',')
			}
			if sl.Kind == sched.SlotSetup {
				b = append(b, `{"kind":"setup","class":`...)
			} else {
				b = append(b, `{"kind":"job","class":`...)
			}
			b = strconv.AppendInt(b, int64(sl.Class), 10)
			b = append(b, `,"job":`...)
			b = strconv.AppendInt(b, int64(sl.Job), 10)
			b = append(b, `,"start":"`...)
			b = sl.Start.Append(b)
			b = append(b, `","end":"`...)
			b = sl.End.Append(b)
			b = append(b, `"}`...)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// appendFloat formats f as encoding/json does: like strconv's shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21, with a one-digit
// negative exponent not padded to two.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on (Encoder's default): control characters, '"',
// '\\', '<', '>' and '&' escaped, each invalid UTF-8 byte replaced by
// \ufffd, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
