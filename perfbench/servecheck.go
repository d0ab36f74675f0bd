package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"setupsched/sched"
	"setupsched/serve"
)

// headJSON is the part of a SolveResponse the checks read.
type headJSON struct {
	Variant    string `json:"variant"`
	Makespan   string `json:"makespan"`
	LowerBound string `json:"lower_bound"`
	Cached     bool   `json:"cached"`
}

// phaseCheck counts what the checks of one phase saw.
type phaseCheck struct{ sent, failed, cached, misroutes int }

// checkReply is serve-hits' correctness check of one response: a 200
// from the shard Proxy.Owner predicts, with the makespan and lower bound
// the library returns for the canonical instance, and — on the sample —
// a schedule that is valid for the request's own instance.
func (si *serveInputs) checkReply(r reply, b *body, owner string) (cached, misrouted bool, err error) {
	if r.err != nil {
		return false, false, fmt.Errorf("transport: %w", r.err)
	}
	if r.status != http.StatusOK {
		return false, false, fmt.Errorf("status %d: %.200s", r.status, r.head)
	}
	if r.shard != owner {
		return false, true, fmt.Errorf("answered by shard %q, ring owner is %q", r.shard, owner)
	}
	var h headJSON
	if err := json.Unmarshal(r.head, &h); err != nil {
		return false, false, fmt.Errorf("decoding response: %w", err)
	}
	e, in, err := si.expectedFor(b)
	if err != nil {
		return false, false, fmt.Errorf("library solve: %w", err)
	}
	if h.Variant != b.v.Short() || h.Makespan != e.res.Makespan.String() || h.LowerBound != e.res.LowerBound.String() {
		return false, false, fmt.Errorf("%s makespan %s bound %s, library on the canonical instance says %s makespan %s bound %s",
			h.Variant, h.Makespan, h.LowerBound, b.v.Short(), e.res.Makespan, e.res.LowerBound)
	}
	if r.full != nil {
		var resp serve.SolveResponse
		if err := json.Unmarshal(r.full, &resp); err != nil {
			return false, false, fmt.Errorf("decoding response: %w", err)
		}
		sc, err := scheduleOf(resp.Schedule)
		if err != nil {
			return false, false, err
		}
		if sc.Variant != b.v {
			return false, false, fmt.Errorf("schedule variant %s, want %s", sc.Variant.Short(), b.v.Short())
		}
		if err := sc.Validate(in); err != nil {
			return false, false, fmt.Errorf("returned schedule invalid for the request's instance: %w", err)
		}
		if got := sc.Makespan().String(); got != h.Makespan {
			return false, false, fmt.Errorf("schedule makespan %s, response says %s", got, h.Makespan)
		}
	}
	return h.Cached, false, nil
}

// check runs checkReply over every sent request of a phase.
func (si *serveInputs) check(p phase, f *fleet, rep *report) phaseCheck {
	var pc phaseCheck
	for i, s := range p.samples {
		if !s.ok {
			continue
		}
		pc.sent++
		rep.attempted++
		j := p.first + i
		b := &si.bodies[si.seq[j]]
		cached, misrouted, err := si.checkReply(p.replies[i], b, f.proxy.Owner(b.fp).ID)
		if misrouted {
			pc.misroutes++
		}
		if err != nil {
			pc.failed++
			rep.fail("request %d: %v", j, err)
			continue
		}
		if cached {
			pc.cached++
		}
	}
	return pc
}

// scheduleOf converts a response schedule back into a sched.Schedule.
func scheduleOf(sj *serve.ScheduleJSON) (*sched.Schedule, error) {
	if sj == nil {
		return nil, fmt.Errorf("response has no schedule")
	}
	sc := &sched.Schedule{Variant: -1}
	for _, v := range sched.Variants {
		if v.Short() == sj.Variant {
			sc.Variant = v
		}
	}
	if sc.Variant < 0 {
		return nil, fmt.Errorf("schedule variant %q", sj.Variant)
	}
	for _, rj := range sj.Runs {
		run := sched.MachineRun{Count: rj.Count, Slots: make([]sched.Slot, len(rj.Slots))}
		for k, sl := range rj.Slots {
			start, err := parseRat(sl.Start)
			if err != nil {
				return nil, err
			}
			end, err := parseRat(sl.End)
			if err != nil {
				return nil, err
			}
			kind, job := sched.SlotJob, sl.Job
			if sl.Kind == "setup" {
				kind, job = sched.SlotSetup, -1
			}
			run.Slots[k] = sched.Slot{Kind: kind, Class: sl.Class, Job: job, Start: start, End: end}
		}
		sc.Runs = append(sc.Runs, run)
	}
	return sc, nil
}

// parseRat reads the "p" or "p/q" form of an exact rational.
func parseRat(s string) (sched.Rat, error) {
	num, den, frac := strings.Cut(s, "/")
	p, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return sched.Rat{}, fmt.Errorf("rational %q: %w", s, err)
	}
	if !frac {
		return sched.R(p), nil
	}
	q, err := strconv.ParseInt(den, 10, 64)
	if err != nil || q <= 0 {
		return sched.Rat{}, fmt.Errorf("rational %q: bad denominator", s)
	}
	return sched.RatOf(p, q), nil
}
