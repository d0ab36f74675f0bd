// Package wiretest builds the seed corpus of the solve-request decoder
// tests: plain bodies for every schedgen family, edge cases of the plain
// form, and mutations that leave it.
package wiretest

import (
	"encoding/json"
	"fmt"
	"strings"

	"setupsched/schedgen"
)

// Bodies returns the seed request bodies.  The first
// 2*len(schedgen.Families) are plain, valid solve requests: for each
// family, a body as clients send it and one with every request field
// set.  The rest are edge cases — whitespace, absent and empty
// aggregates, epsilon in every JSON number form — and mutations that
// encoding/json must decide: escaped and case-variant keys, duplicate
// keys, non-integer, "-0", 19-digit, out-of-range and null numbers,
// non-ASCII strings, an unknown key, trailing bytes.
func Bodies() [][]byte {
	var out [][]byte
	add := func(format string, args ...any) { out = append(out, []byte(fmt.Sprintf(format, args...))) }
	variants := []string{"split", "pmtn", "nonp"}
	var small string
	for i, f := range schedgen.Families {
		in, err := json.Marshal(f.Make(schedgen.Params{
			M: 3, Classes: 4, JobsPer: 3, MaxSetup: 20, MaxJob: 30, Seed: int64(i + 1),
		}))
		if err != nil {
			panic(err)
		}
		v := variants[i%3]
		add(`{"instance":%s,"variant":%q,"include_schedule":true}`, in, v)
		add(`{"id":"item-%d","instance":%s,"variant":%q,"algorithm":"eps","epsilon":0.5,"timeout_ms":250,`+
			`"include_schedule":false,"include_trace":true,"include_spans":true,"no_cache":true,`+
			`"traceparent":"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}`, i, in, v)
		if small == "" || len(in) < len(small) {
			small = string(in)
		}
	}
	inst := `{"m":3,"classes":[{"setup":4,"jobs":[7,2,5]},{"setup":1,"jobs":[3,3]}]}`
	for _, body := range []string{
		// Plain, with whitespace, absent and empty aggregates.
		" {\n\t\"instance\" : " + inst + " ,\r\n \"variant\":\"nonp\"}\n ",
		`{"instance":{"m":2,"classes":[{"setup":1,"jobs":[]},{"jobs":[4]},{"setup":2}]}}`,
		`{"instance":{"m":1,"classes":[]}}`,
		`{"instance":{"m":1}}`,
		`{"instance":{}}`,
		`{}`,
		`{"variant":"split"}`,
		`{"instance":` + small + `,"id":"<&>~` + "\x7f" + `"}`,
		// Escaped and case-variant keys.
		`{"\u0069nstance":` + inst + `}`,
		`{"Instance":` + inst + `}`,
		`{"INSTANCE":` + inst + `,"instance":` + inst + `}`,
		`{"Instance":1,"instance":` + inst + `}`,
		`{"iNsTaNcE":"x"}`,
		`{"instance":{"M":3,"classes":[{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":3,"Classes":[{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":3,"classes":[{"Setup":4,"jobs":[7]}]}}`,
		`{"instance":` + inst + `,"Variant":"split"}`,
		`{"instance":` + inst + `,"v\u0061riant":"split"}`,
		// Duplicate keys.
		`{"instance":{"m":3,"m":4,"classes":[{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":3,"classes":[{"setup":4,"setup":5,"jobs":[7]}]}}`,
		`{"instance":{"m":3,"classes":[{"setup":4,"jobs":[7],"jobs":[8,9]}]}}`,
		`{"instance":` + inst + `,"instance":{"m":2,"classes":[{"setup":1,"jobs":[1]}]}}`,
		`{"instance":` + inst + `,"variant":"split","variant":"pmtn"}`,
		// Numbers outside the plain form.
		`{"instance":{"m":1.0,"classes":[{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":1e3,"classes":[{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":3,"classes":[{"setup":-0,"jobs":[7]}]}}`,
		`{"instance":{"m":3,"classes":[{"setup":4,"jobs":[1234567890123456789]}]}}`,
		`{"instance":{"m":3,"classes":[{"setup":4,"jobs":[123456789012345678]}]}}`,
		`{"instance":{"m":3,"classes":[{"setup":4,"jobs":[99999999999999999999]}]}}`,
		`{"instance":{"m":03,"classes":[{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":-3,"classes":[{"setup":-4,"jobs":[-7,0]}]}}`,
		`{"instance":{"m":null,"classes":[{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":3,"classes":null}}`,
		`{"instance":{"m":3,"classes":[null]}}`,
		`{"instance":{"m":3,"classes":[{"setup":4,"jobs":null}]}}`,
		`{"instance":null}`,
		`{"instance":` + inst + `,"epsilon":0.5,"algorithm":"eps"}`,
		`{"instance":` + inst + `,"epsilon":2.5E-3,"algorithm":"eps"}`,
		`{"instance":` + inst + `,"epsilon":1e-400}`,
		`{"instance":` + inst + `,"epsilon":1e400}`,
		`{"instance":` + inst + `,"epsilon":-0}`,
		`{"instance":` + inst + `,"epsilon":.5}`,
		`{"instance":` + inst + `,"epsilon":1.}`,
		`{"instance":` + inst + `,"epsilon":01}`,
		`{"instance":` + inst + `,"epsilon":"0.5"}`,
		`{"instance":` + inst + `,"epsilon":null}`,
		`{"instance":` + inst + `,"timeout_ms":1e2}`,
		`{"instance":` + inst + `,"include_schedule":1}`,
		`{"instance":` + inst + `,"id":null}`,
		`{"instance":` + inst + `,"no_cache":null}`,
		// Non-ASCII and escaped strings, an unknown key.
		`{"instance":` + inst + `,"id":"né"}`,
		`{"instance":` + inst + `,"id":"é\n"}`,
		`{"instance":` + inst + `,"id":"a\"b"}`,
		"{\"instance\":" + inst + ",\"id\":\"\xff\"}",
		`{"instance":` + inst + `,"parallelism":4}`,
		`{"instance":` + inst + `,"parallelism":4.5,"extra":{"a":[1,{}]}}`,
		// Trailing bytes and broken syntax.
		`{"instance":` + inst + `} garbage`,
		`{"instance":` + inst + `}{"instance":` + inst + `}`,
		`{"instance":` + inst + `},`,
		`{"instance":` + inst + `,}`,
		`{"instance":{"m":3,"classes":[{"setup":4,"jobs":[7,]}]}}`,
		`{"instance":{"m":3,"classes":[,{"setup":4,"jobs":[7]}]}}`,
		`{"instance":{"m":3 "classes":[]}}`,
		`{"include_trace":truex}`,
		`{"include_trace":tru}`,
		`{"instance"`,
		`{"instance":` + strings.TrimSuffix(inst, "}"),
		`[]`,
		`null`,
		``,
		` `,
	} {
		out = append(out, []byte(body))
	}
	return out
}
