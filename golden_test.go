package setupsched

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setupsched/schedgen"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata/golden_*.txt files of the tests that run")

const (
	goldenFile       = "testdata/golden_schedules.txt"
	goldenProbesFile = "testdata/golden_probes.txt"
)

// goldenCase is one corpus instance of the construction golden test.
type goldenCase struct {
	name string
	in   *Instance
}

// goldenCorpus is every schedgen family at eight seeds under three size
// profiles (few machines; the diff harness's medium profile; m well
// above the class count, where run compression and tail wrapping carry
// the schedule), plus pmtnCaseA instances and three instances of the
// end-to-end benchmark's core-cold shape, on which the Class Jumping
// searches probe for real.
func goldenCorpus() []goldenCase {
	profiles := []struct {
		name string
		p    schedgen.Params
	}{
		{"small", schedgen.Params{M: 4, Classes: 10, JobsPer: 3, MaxSetup: 40, MaxJob: 60}},
		{"medium", schedgen.Params{M: 16, Classes: 80, JobsPer: 5, MaxSetup: 200, MaxJob: 300}},
		{"wide", schedgen.Params{M: 90, Classes: 30, JobsPer: 6, MaxSetup: 300, MaxJob: 400}},
	}
	var out []goldenCase
	for _, fam := range schedgen.Families {
		for _, pr := range profiles {
			for seed := int64(1); seed <= 8; seed++ {
				p := pr.p
				p.Seed = seed
				out = append(out, goldenCase{fmt.Sprintf("%s/%s/%d", fam.Name, pr.name, seed), fam.Make(p)})
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		out = append(out, goldenCase{fmt.Sprintf("pmtncasea/%d", seed), pmtnCaseA(seed)})
	}
	for seed := int64(1); seed <= 3; seed++ {
		const n = 20_000
		out = append(out, goldenCase{fmt.Sprintf("corecold/%d", seed), schedgen.ExpensiveSetups(schedgen.Params{
			M: n/10 + 1, Classes: n / 8, JobsPer: 8,
			MaxSetup: 2_000_000_000, MaxJob: 200_000_000, Seed: seed,
		})})
	}
	return out
}

// pmtnCaseA builds an instance whose preemptive dual test lands in the
// knapsack branch (case A of Theorem 5) near its threshold, which no
// schedgen family reaches: several I0exp classes (s > T/2, 3/4T < s+P <
// T for T around 100) filling the large machines, an I+exp class, star
// classes with one big job each and a few light cheap classes, on barely
// more machines than large ones.
func pmtnCaseA(seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	var cls []Class
	l := 3 + rng.Intn(6)
	for k := 0; k < l; k++ {
		cls = append(cls, Class{Setup: 52 + rng.Int63n(8), Jobs: []int64{20 + rng.Int63n(10)}})
	}
	cls = append(cls, Class{Setup: 52, Jobs: []int64{48, 40 + rng.Int63n(8)}})
	for k := 0; k < 2+rng.Intn(3); k++ {
		cls = append(cls, Class{Setup: 5 + rng.Int63n(10), Jobs: []int64{40 + rng.Int63n(8), 1 + rng.Int63n(6)}})
	}
	for k := 0; k < rng.Intn(4); k++ {
		cls = append(cls, Class{Setup: 1 + rng.Int63n(5), Jobs: []int64{1 + rng.Int63n(12), 1 + rng.Int63n(12)}})
	}
	return &Instance{M: int64(l + 1 + rng.Intn(3)), Classes: cls}
}

// scheduleDigest is the SHA-256 of a schedule's construction output:
// every run's Count and slot count, and every slot's Kind, Class, Job,
// Start and End in order.  A Rat is hashed as its normalized numerator
// and denominator plus whether it is the zero value Rat{} (which equals
// R(0) but differs from it under reflect.DeepEqual).
func scheduleDigest(s *Schedule) string {
	h := sha256.New()
	var buf []byte
	putRat := func(r Rat) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Num()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Den()))
		if r == (Rat{}) {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	for _, run := range s.Runs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(run.Count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(run.Slots)))
		for _, sl := range run.Slots {
			buf = append(buf, byte(sl.Kind))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(sl.Class)))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(sl.Job)))
			putRat(sl.Start)
			putRat(sl.End)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

var goldenAlgo = map[Algorithm]string{TwoApprox: "2approx", EpsilonSearch: "eps", Exact32: "exact"}

// probeDigest is the SHA-256 of a search's probe sequence: the probe
// count, then every trace entry's guess (normalized numerator and
// denominator) and decision in execution order.
func probeDigest(res *Result) string {
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint64(nil, uint64(res.Probes))
	for _, pr := range res.Trace {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pr.T.Num()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pr.T.Den()))
		if pr.Accepted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests solves every corpus instance under all nine PaperRuns and
// returns one "instance run digest" line per solve for the schedule and
// one "instance run probes digest" line for the probe sequence.
func goldenDigests(t *testing.T) (schedules, probes []string) {
	t.Helper()
	ctx := context.Background()
	for _, gc := range goldenCorpus() {
		s, err := NewSolver(gc.in)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for _, run := range PaperRuns() {
			res, err := s.Solve(ctx, run.Variant, WithAlgorithm(run.Algorithm))
			if err != nil {
				t.Fatalf("%s %s: %v", gc.name, run, err)
			}
			name := fmt.Sprintf("%s %s/%s", gc.name, run.Variant.Short(), goldenAlgo[run.Algorithm])
			schedules = append(schedules, name+" "+scheduleDigest(res.Schedule))
			probes = append(probes, fmt.Sprintf("%s %d %s", name, res.Probes, probeDigest(res)))
		}
	}
	return schedules, probes
}

// TestGoldenScheduleDigests pins the builders' output bit for bit: every
// PaperRuns schedule of the corpus must hash to its committed digest.
// Regenerate with -update-golden only for an intentional output change.
func TestGoldenScheduleDigests(t *testing.T) {
	got, _ := goldenDigests(t)
	checkGolden(t, goldenFile, "TestGoldenScheduleDigests", got)
}

// TestGoldenProbeDigests pins the searches' probe sequences on the same
// corpus: every PaperRuns solve must probe the same guesses, in the same
// order and with the same decisions, as the committed digests record.  A
// search change that keeps every schedule can still move the probes;
// this is the test that notices.
func TestGoldenProbeDigests(t *testing.T) {
	_, got := goldenDigests(t)
	checkGolden(t, goldenProbesFile, "TestGoldenProbeDigests", got)
}

// checkGolden compares got line by line with the committed file, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, file, test string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), file)
		return
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatalf("%v (generate with go test -run %s -update-golden)", err, test)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, %s has %d", len(got), file, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d mismatches in total", bad)
	}
}
