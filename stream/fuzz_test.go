package stream

import (
	"context"
	"testing"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// decodeDeltas turns fuzz bytes into a deterministic delta sequence
// against the evolving shape of the mirror instance.  The decoder only
// shapes proposals; validity is decided by the session and the mirror,
// which the target requires to agree.
func decodeDeltas(data []byte, mirror *sched.Instance) []sched.Delta {
	var out []sched.Delta
	for i := 0; i+3 < len(data) && len(out) < 48; i += 4 {
		op, a, b, c := data[i], int(data[i+1]), int64(data[i+2]), int(data[i+3])
		nc := len(mirror.Classes)
		var d sched.Delta
		switch op % 6 {
		case 0:
			jobs := []int64{1 + b%37}
			if c%2 == 0 {
				jobs = append(jobs, 1+int64(c%29))
			}
			d = sched.Delta{Op: sched.DeltaAddJobs, Class: a % (nc + 1), Jobs: jobs}
		case 1:
			cl := a % (nc + 1)
			j := 0
			if cl < nc && len(mirror.Classes[cl].Jobs) > 0 {
				j = c % (len(mirror.Classes[cl].Jobs) + 1)
			}
			d = sched.Delta{Op: sched.DeltaRemoveJob, Class: cl, Job: j}
		case 2:
			d = sched.Delta{Op: sched.DeltaSetSetup, Class: a % (nc + 1), Setup: b%61 - 1}
		case 3:
			d = sched.Delta{Op: sched.DeltaAddClass, Setup: b % 41, Jobs: []int64{1 + int64(c%23)}}
		case 4:
			d = sched.Delta{Op: sched.DeltaRemoveClass, Class: a % (nc + 1)}
		default:
			d = sched.Delta{Op: sched.DeltaSetMachines, M: int64(a % 10)} // 0 is invalid on purpose
		}
		out = append(out, d)
		// Keep the decoder's view in sync so later index choices track the
		// evolving shape (apply errors are fine — both replicas will agree).
		_, _ = d.Apply(mirror)
	}
	return out
}

// FuzzSessionDeltas drives a random delta sequence through a Session and
// a from-scratch replica, asserting the session subsystem's invariants:
// identical delta acceptance, identical fingerprints, a drift-free
// incremental preparation, and a final warm/cached solve that is
// bit-identical to a fresh cold solve.
func FuzzSessionDeltas(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 7, 2, 5, 0, 11, 1, 2, 3, 40, 0})
	f.Add(int64(3), []byte{20, 0, 3, 0, 1, 2, 9, 9, 4, 1, 1, 1, 3, 3, 3, 3})
	f.Add(int64(7), []byte{5, 5, 5, 5, 5, 0, 0, 0, 2, 1, 60, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		base := schedgen.Uniform(schedgen.Params{
			M: 1 + (seed&7+7)%8, Classes: 4 + int(seed%5), JobsPer: 3,
			MaxSetup: 30, MaxJob: 40, Seed: seed,
		})
		if err := base.Validate(); err != nil {
			t.Skip("generator produced an invalid base")
		}
		sess, err := NewSession(base)
		if err != nil {
			t.Fatal(err)
		}
		mirror := base.Clone()
		deltas := decodeDeltas(data, base.Clone())

		ctx := context.Background()
		for i, d := range deltas {
			errS := sess.Apply(ctx, d)
			_, errM := d.Apply(mirror)
			if (errS == nil) != (errM == nil) {
				t.Fatalf("delta %d %s: session err %v, fresh err %v", i, d, errS, errM)
			}
			// Interleave solves so warm seeds are exercised mid-sequence,
			// not only at the end.
			if i%5 == 4 {
				if _, err := sess.Solve(ctx, sched.NonPreemptive); err != nil {
					t.Fatalf("delta %d: solve: %v", i, err)
				}
			}
		}

		if err := sess.SelfCheck(); err != nil {
			t.Fatal(err)
		}
		sessFP, err := sess.Fingerprint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sessFP, mirror.Fingerprint(); got != want {
			t.Fatalf("fingerprint %.16s != fresh %.16s", got, want)
		}

		solver, err := setupsched.NewSolver(mirror)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range sched.Variants {
			got, err := sess.Solve(ctx, v)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			want, err := solver.Solve(ctx, v)
			if err != nil {
				t.Fatalf("%v fresh: %v", v, err)
			}
			if err := sameSchedule(got, want); err != nil {
				t.Fatalf("%v: %v", v, err)
			}
		}
	})
}
