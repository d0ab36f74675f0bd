package setupsched

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"setupsched/sched"
)

// limitInstance draws an instance whose total load N lies within 1/64
// below min(MaxTotalLoad, MaxMachineLoadProduct/m): up to 60 classes of
// up to 12 jobs, with heavy-tailed setup and job shares and some zero
// setups.
func limitInstance(rng *rand.Rand, m int64) *Instance {
	n := min(sched.MaxTotalLoad, sched.MaxMachineLoadProduct/m)
	n -= rng.Int63n(n/64 + 1)
	in := &Instance{M: m}
	var total float64
	for range 1 + rng.Intn(60) {
		var cl Class
		if rng.Intn(8) > 0 {
			cl.Setup = 1 + rng.Int63n(int64(1)<<rng.Intn(31))
		}
		for range 1 + rng.Intn(12) {
			cl.Jobs = append(cl.Jobs, 1+rng.Int63n(int64(1)<<rng.Intn(31)))
		}
		total += float64(cl.Setup)
		for _, t := range cl.Jobs {
			total += float64(t)
		}
		in.Classes = append(in.Classes, cl)
	}
	// Scale the drawn shares to N, then let the largest job absorb the
	// rounding so that the load is exactly N.
	scale := float64(n) / total
	var sum int64
	big := &in.Classes[0].Jobs[0]
	for c := range in.Classes {
		cl := &in.Classes[c]
		cl.Setup = int64(float64(cl.Setup) * scale)
		sum += cl.Setup
		for j := range cl.Jobs {
			cl.Jobs[j] = max(1, int64(float64(cl.Jobs[j])*scale))
			sum += cl.Jobs[j]
			if cl.Jobs[j] > *big {
				big = &cl.Jobs[j]
			}
		}
	}
	*big += n - sum
	return in
}

// TestBuildersAtMagnitudeLimits solves random instances at the documented
// magnitude limits with every PaperRuns entry, for m up to 41, up to
// 5001 and up to 2^24 - 1.  Every result must pass Verify, and no
// construction may panic: the builders scale integer times onto grids of
// denominator up to 4 den(T), which must stay inside int64 here.
func TestBuildersAtMagnitudeLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ctx := context.Background()
	for _, mEnd := range []int64{42, 5002, 1 << 24} {
		for iter := range 300 {
			in := limitInstance(rng, 2+rng.Int63n(mEnd-2))
			name := fmt.Sprintf("m<%d/%d (m=%d, c=%d)", mEnd, iter, in.M, len(in.Classes))
			s, err := NewSolver(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, run := range PaperRuns() {
				res, err := s.Solve(ctx, run.Variant, WithAlgorithm(run.Algorithm))
				if err != nil {
					t.Fatalf("%s %s: %v", name, run, err)
				}
				if err := Verify(in, run.Variant, res); err != nil {
					t.Fatalf("%s %s: %v", name, run, err)
				}
			}
		}
	}
}
