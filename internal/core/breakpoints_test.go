package core_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	. "setupsched/internal/core"
	"setupsched/sched"
	"setupsched/schedgen"
)

// ratBreakpoints is the Rat-built reference list of a Class Jumping
// search: every breakpoint as a Rat, sorted and deduplicated with Rat
// comparisons, then restricted to the open bracket (lo, hi).
func ratBreakpoints(p *Prep, pmtn bool, lo, hi sched.Rat) []sched.Rat {
	var all []sched.Rat
	for i := range p.In.Classes {
		cls := &p.In.Classes[i]
		all = append(all, sched.R(2*cls.Setup))
		if !pmtn {
			continue
		}
		sp := cls.Setup + p.P[i]
		all = append(all, sched.R(4*cls.Setup), sched.R(sp), sched.RatOf(4*sp, 3))
		for _, t := range cls.Jobs {
			all = append(all, sched.R(2*(cls.Setup+t)))
		}
	}
	var out []sched.Rat
	for _, r := range sortRats(all) {
		if lo.Less(r) && r.Less(hi) {
			out = append(out, r)
		}
	}
	return out
}

// bracketEnds returns bracket end candidates for an instance: the cold
// bracket's ends, N/m, every 4(s_i+P_i)/3 and 2 s_i breakpoint itself,
// and integers, thirds and odd fractions drawn from (0, N].
func bracketEnds(p *Prep, rng *rand.Rand) []sched.Rat {
	ends := []sched.Rat{
		p.TMin(sched.Preemptive), p.TMin(sched.Splittable),
		sched.R(p.N), sched.RatOf(p.N, p.M), sched.R(1),
	}
	for i := range p.In.Classes {
		sp := p.In.Classes[i].Setup + p.P[i]
		ends = append(ends, sched.RatOf(4*sp, 3), sched.R(2*p.In.Classes[i].Setup))
	}
	for k := 0; k < 6; k++ {
		x := 1 + rng.Int63n(p.N)
		ends = append(ends, sched.R(x), sched.RatOf(3*x-1-rng.Int63n(2), 3),
			sched.RatOf(7*x-1-rng.Int63n(6), 7))
	}
	return ends
}

// keyList turns a search's breakpoint keys into the guesses k/scale they
// stand for.
func keyList(keys []int64, scale int64) []sched.Rat {
	out := make([]sched.Rat, len(keys))
	for i, k := range keys {
		out[i] = sched.RatOf(k, scale)
	}
	return out
}

// checkBreakpoints compares both key-built lists with the Rat reference
// over many brackets drawn from bracketEnds.
func checkBreakpoints(t *testing.T, tag string, in *sched.Instance, rng *rand.Rand) {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	p := Prepare(in)
	ends := bracketEnds(p, rng)
	for trial := 0; trial < 60; trial++ {
		lo, hi := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
		if trial == 0 {
			lo, hi = p.TMin(sched.Preemptive), sched.R(p.N)
		}
		if !lo.Less(hi) {
			continue
		}
		for _, c := range []struct {
			name string
			pmtn bool
			got  []sched.Rat
		}{
			{"pmtn", true, keyList(PmtnBreakpoints(p, lo, hi))},
			{"split", false, keyList(SplitBreakpoints(p, lo, hi))},
		} {
			want := ratBreakpoints(p, c.pmtn, lo, hi)
			if len(c.got) != len(want) {
				t.Fatalf("%s %s (%s, %s): %d keys, want %d\ngot  %v\nwant %v",
					tag, c.name, lo, hi, len(c.got), len(want), c.got, want)
			}
			for k := range want {
				if !c.got[k].Equal(want[k]) {
					t.Fatalf("%s %s (%s, %s): entry %d = %s, want %s",
						tag, c.name, lo, hi, k, c.got[k], want[k])
				}
			}
		}
	}
}

// TestBreakpointKeysMatchRatList pins the Class Jumping searches'
// breakpoint lists: built as exact int64 keys, filtered to the open
// bracket and radix-sorted, the guesses they stand for must equal the
// Rat-built, Rat-sorted list restricted to the same bracket, for integer
// and fractional bracket ends, ends lying exactly on a breakpoint, and
// loads near MaxTotalLoad.
func TestBreakpointKeysMatchRatList(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	t.Run("small", func(t *testing.T) {
		for iter := 0; iter < 300; iter++ {
			checkBreakpoints(t, fmt.Sprintf("iter %d", iter), smallRandomInstance(rng), rng)
		}
	})
	t.Run("families", func(t *testing.T) {
		for _, fam := range schedgen.Families {
			for seed := int64(0); seed < 3; seed++ {
				in := fam.Make(schedgen.Params{
					M: 3 + 2*seed, Classes: 12, JobsPer: 6,
					MaxSetup: 900, MaxJob: 300, Seed: seed,
				})
				checkBreakpoints(t, fmt.Sprintf("%s seed %d", fam.Name, seed), in, rng)
			}
		}
	})
	t.Run("near-max-load", func(t *testing.T) {
		for iter := 0; iter < 20; iter++ {
			// N within a few units of MaxTotalLoad, and on every other
			// instance one setup near N, so the largest key 12 s_i comes
			// near 12 MaxTotalLoad; m*N stays within MaxMachineLoadProduct.
			in := &sched.Instance{M: 1 + rng.Int63n(8)}
			left := sched.MaxTotalLoad - rng.Int63n(4)
			for c := 0; c < 3; c++ {
				cl := sched.Class{Setup: rng.Int63n(left/2 + 1)}
				if c == 0 && iter%2 == 0 {
					cl.Setup = left - 1000 // one setup carries nearly all of N
				}
				left -= cl.Setup
				for j := 0; j < 3; j++ {
					cl.Jobs = append(cl.Jobs, 1+rng.Int63n(left/4+1))
					left -= cl.Jobs[j]
				}
				in.Classes = append(in.Classes, cl)
			}
			in.Classes[2].Jobs[2] += left
			checkBreakpoints(t, fmt.Sprintf("iter %d", iter), in, rng)
		}
	})
}

// FuzzSortKeys holds the breakpoint radix sort to slices.Sort plus
// slices.Compact.  The input is a window base kLo, a span (both folded
// into ranges of 12 MaxTotalLoad) and the keys as little-endian uint64
// words, each folded to kLo + 1 + (word mod span), so every key exceeds
// kLo, as the breakpoint lists guarantee.  The seeds cover the empty
// list, one key, all-equal keys, heavy duplicates, a key at kLo+1 and
// spans from 1 up to 12 MaxTotalLoad.
func FuzzSortKeys(f *testing.F) {
	words := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	maxSpan := 12 * sched.MaxTotalLoad
	f.Add(int64(0), int64(1), []byte{})
	f.Add(int64(5), int64(100), words(42))
	f.Add(int64(7), int64(1000), words(9, 9, 9, 9, 9, 9))
	f.Add(int64(0), int64(4), words(3, 1, 3, 0, 3, 1, 1, 3, 0, 0, 2, 3, 1))
	f.Add(int64(-3), int64(1<<20), words(0, 70000, 0, 1, 256, 0, 65535))
	f.Add(int64(0), int64(1), words(5, 6, 7))
	f.Add(int64(1<<40), int64(300), words(255, 256, 0, 257, 299, 1))
	f.Add(int64(0), maxSpan, words(uint64(maxSpan-1), 0, 1<<56, 1<<48, 1<<32, 1<<56, 12345, 1<<8))
	f.Add(int64(999), maxSpan, words(1<<63, 1<<62+77, 3, 1<<61, 1<<57, 1<<60, 1<<59-1, 4))
	f.Fuzz(func(t *testing.T, kLo, span int64, raw []byte) {
		if span < 1 || span > maxSpan {
			span = 1 + int64(uint64(span)%uint64(maxSpan))
		}
		kLo %= maxSpan
		keys := make([]int64, 0, len(raw)/8)
		for ; len(raw) >= 8; raw = raw[8:] {
			keys = append(keys, kLo+1+int64(binary.LittleEndian.Uint64(raw)%uint64(span)))
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := SortKeys(keys, kLo); !slices.Equal(got, want) {
			t.Fatalf("kLo %d span %d: sorted %v, want %v", kLo, span, got, want)
		}
	})
}
