package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"setupsched"
	"setupsched/sched"
	"setupsched/serve"
)

func smallInstance() *sched.Instance {
	return coreShape(200, 7)
}

func TestCoreCheckRejectsTamperedResults(t *testing.T) {
	in := smallInstance()
	s, err := setupsched.NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sched.Variants {
		res, err := s.Solve(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCoreResult(in, v, res); err != nil {
			t.Fatalf("%s: genuine result rejected: %v", v.Short(), err)
		}
		bad := *res
		bad.Makespan = res.Makespan.AddInt(1)
		if checkCoreResult(in, v, &bad) == nil {
			t.Errorf("%s: altered makespan accepted", v.Short())
		}
	}
}

// A feasible schedule whose makespan exceeds 3/2 of its certified bound
// passes Verify but not the approximation check.
func TestCoreCheckRejectsBrokenGuarantee(t *testing.T) {
	in := &sched.Instance{M: 2, Classes: []sched.Class{{Setup: 1, Jobs: []int64{4, 4}}, {Setup: 1, Jobs: []int64{4, 4}}}}
	var slots []sched.Slot
	at := int64(0)
	place := func(kind sched.SlotKind, class, job int, n int64) {
		slots = append(slots, sched.Slot{Kind: kind, Class: class, Job: job, Start: sched.R(at), End: sched.R(at + n)})
		at += n
	}
	for c := 0; c < 2; c++ {
		place(sched.SlotSetup, c, -1, 1)
		place(sched.SlotJob, c, 0, 4)
		place(sched.SlotJob, c, 1, 4)
	}
	sc := &sched.Schedule{Variant: sched.NonPreemptive, Runs: []sched.MachineRun{{Count: 1, Slots: slots}}}
	res := &setupsched.Result{Schedule: sc, Makespan: sched.R(18), LowerBound: in.LowerBound(sched.NonPreemptive)}
	if err := setupsched.Verify(in, sched.NonPreemptive, res); err != nil {
		t.Fatalf("test schedule should pass Verify: %v", err)
	}
	if checkCoreResult(in, sched.NonPreemptive, res) == nil {
		t.Error("makespan 18 over bound 9 accepted")
	}
	res.Fallback = true
	if err := checkCoreResult(in, sched.NonPreemptive, res); err != nil {
		t.Errorf("fallback results are exempt from the 3/2 check: %v", err)
	}
}

func TestSessionCheckRejectsTamperedSchedule(t *testing.T) {
	in := smallInstance()
	s, _ := setupsched.NewSolver(in)
	a, _ := s.Solve(context.Background(), sched.NonPreemptive)
	b, _ := s.Solve(context.Background(), sched.NonPreemptive)
	if err := sameResult(a, b); err != nil {
		t.Fatalf("two solves of one instance differ: %v", err)
	}
	b.Schedule.Runs[0].Slots[0].End = b.Schedule.Runs[0].Slots[0].End.AddInt(1)
	if sameResult(a, b) == nil {
		t.Error("altered schedule accepted as bit-identical")
	}
	b.Schedule = a.Schedule
	b.LowerBound = b.LowerBound.AddInt(-1)
	if sameResult(a, b) == nil {
		t.Error("altered lower bound accepted as bit-identical")
	}
}

// serveReply answers a permuted instance through a real serve.Server and
// wraps the encoded response the way the load generator keeps it.
func serveReply(t *testing.T, in *sched.Instance, v sched.Variant) (reply, *serveInputs, *body) {
	t.Helper()
	e, err := solveCanonical(in, v)
	if err != nil {
		t.Fatal(err)
	}
	si := &serveInputs{exp: []expected{e}}
	b, err := encodeBody(in, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	var req serve.SolveRequest
	if err := json.Unmarshal(b.data, &req); err != nil {
		t.Fatal(err)
	}
	resp := serve.New(serve.Config{}).Solve(context.Background(), &req)
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	hr := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}}
	hr.Header.Set(serve.ShardHeader, "s0")
	return newReply(hr, data, nil, true), si, &b
}

func TestServeCheckRejectsTamperedResponses(t *testing.T) {
	v := sched.Preemptive
	r, si, b := serveReply(t, smallInstance(), v)
	if _, _, err := si.checkReply(r, b, "s0"); err != nil {
		t.Fatalf("genuine response rejected: %v", err)
	}
	if len(r.head) >= len(r.full) || bytes.Contains(r.head, scheduleKey) {
		t.Fatalf("head keeps the schedule: %d of %d bytes", len(r.head), len(r.full))
	}

	if _, misrouted, err := si.checkReply(r, b, "s1"); err == nil || !misrouted {
		t.Error("response from the wrong shard accepted")
	}
	bad := r
	bad.status = http.StatusInternalServerError
	if _, _, err := si.checkReply(bad, b, "s0"); err == nil {
		t.Error("500 accepted")
	}

	var h map[string]any
	if err := json.Unmarshal(r.head, &h); err != nil {
		t.Fatal(err)
	}
	h["makespan"] = si.exp[0].res.Makespan.AddInt(1).String()
	bad = r
	bad.head, _ = json.Marshal(h)
	if _, _, err := si.checkReply(bad, b, "s0"); err == nil {
		t.Error("altered makespan accepted")
	}

	// Moving one job slot onto another class breaks the schedule for the
	// request's instance even though the header fields are intact.
	bad = r
	bad.full = []byte(strings.Replace(string(r.full), `"kind":"job","class":0,`, `"kind":"job","class":1,`, 1))
	if bytes.Equal(bad.full, r.full) {
		t.Fatal("tamper did not apply")
	}
	if _, _, err := si.checkReply(bad, b, "s0"); err == nil {
		t.Error("schedule with a job moved to another class accepted")
	}
}

func TestParseRat(t *testing.T) {
	for s, want := range map[string]sched.Rat{"7": sched.R(7), "6/4": sched.RatOf(3, 2), "-1/3": sched.RatOf(-1, 3)} {
		if got, err := parseRat(s); err != nil || !got.Equal(want) {
			t.Errorf("parseRat(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "x", "1/0", "1/-2", "1/x"} {
		if _, err := parseRat(s); err == nil {
			t.Errorf("parseRat(%q) accepted", s)
		}
	}
}
