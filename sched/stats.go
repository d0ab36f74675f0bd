package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Stats summarizes a schedule's resource usage.
type Stats struct {
	// Makespan is the schedule's makespan.
	Makespan Rat
	// Machines is the number of machines carrying at least one slot.
	Machines int64
	// SetupTime is the total time spent on setups across all machines.
	SetupTime Rat
	// WorkTime is the total job processing time across all machines.
	WorkTime Rat
	// IdleTime is Machines*Makespan - SetupTime - WorkTime.
	IdleTime Rat
	// Setups counts setup slots (with run multiplicities).
	Setups int64
	// SetupsPerClass counts setups by class.
	SetupsPerClass []int64
}

// Utilization returns WorkTime / (Machines * Makespan) in [0, 1].
func (st *Stats) Utilization() float64 {
	denom := st.Makespan.Float64() * float64(st.Machines)
	if denom <= 0 {
		return 0
	}
	return st.WorkTime.Float64() / denom
}

// SetupOverhead returns SetupTime / (SetupTime + WorkTime) in [0, 1].
func (st *Stats) SetupOverhead() float64 {
	total := st.SetupTime.Add(st.WorkTime).Float64()
	if total <= 0 {
		return 0
	}
	return st.SetupTime.Float64() / total
}

// ComputeStats aggregates usage statistics for the schedule; numClasses
// sizes the per-class setup counts (pass in.NumClasses()).
func (s *Schedule) ComputeStats(numClasses int) Stats {
	st := Stats{
		Makespan:       s.Makespan(),
		SetupsPerClass: make([]int64, numClasses),
	}
	for i := range s.Runs {
		run := &s.Runs[i]
		if len(run.Slots) == 0 {
			continue
		}
		st.Machines += run.Count
		for j := range run.Slots {
			sl := &run.Slots[j]
			length := sl.Len().MulInt(run.Count)
			if sl.Kind == SlotSetup {
				st.SetupTime = st.SetupTime.Add(length)
				st.Setups += run.Count
				if sl.Class >= 0 && sl.Class < numClasses {
					st.SetupsPerClass[sl.Class] += run.Count
				}
			} else {
				st.WorkTime = st.WorkTime.Add(length)
			}
		}
	}
	st.IdleTime = st.Makespan.MulInt(st.Machines).Sub(st.SetupTime).Sub(st.WorkTime)
	return st
}

// MarshalJSON encodes a Rat as the string "p/q" (or "p" for integers).
func (r Rat) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 42)
	return append(r.Append(append(b, '"')), '"'), nil
}

// UnmarshalJSON decodes what MarshalJSON writes — a "p" or "p/q" string
// with q >= 1 — and bare JSON integers.  Anything else is an error:
// spaces, signs other than a leading '-' on p, leading zeros, hex, extra
// slashes or trailing bytes.
func (r *Rat) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] != '"' {
		p, ok := parseDecimal(string(data), true)
		if !ok {
			return fmt.Errorf("sched: cannot parse rational %s", data)
		}
		*r = R(p)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	num, den, frac := strings.Cut(s, "/")
	p, ok := parseDecimal(num, true)
	q := int64(1)
	if ok && frac {
		q, ok = parseDecimal(den, false)
	}
	if !ok {
		return fmt.Errorf("sched: cannot parse rational %q", s)
	}
	if q == 0 {
		return fmt.Errorf("sched: zero denominator in %q", s)
	}
	*r = RatOf(p, q)
	return nil
}

// parseDecimal parses a JSON integer, -?(0|[1-9][0-9]*), that fits an
// int64 and is not math.MinInt64 (whose negation overflows); signed
// allows the '-'.
func parseDecimal(s string, signed bool) (int64, bool) {
	digits := s
	if signed {
		digits = strings.TrimPrefix(s, "-")
	}
	if digits == "" || digits[0] == '0' && len(digits) > 1 {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil && v != math.MinInt64
}

// slotJSON is the serialized slot form.
type slotJSON struct {
	Kind  string `json:"kind"` // "setup" or "job"
	Class int    `json:"class"`
	Job   int    `json:"job,omitempty"`
	Start Rat    `json:"start"`
	End   Rat    `json:"end"`
}

type runJSON struct {
	Count int64      `json:"count"`
	Slots []slotJSON `json:"slots"`
}

type scheduleJSON struct {
	Variant string    `json:"variant"`
	T       Rat       `json:"guess,omitempty"`
	Runs    []runJSON `json:"machines"`
}

// MarshalJSON serializes the schedule with exact rational time stamps.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{Variant: s.Variant.Short(), T: s.T}
	for i := range s.Runs {
		rj := runJSON{Count: s.Runs[i].Count}
		for _, sl := range s.Runs[i].Slots {
			kind := "job"
			if sl.Kind == SlotSetup {
				kind = "setup"
			}
			rj.Slots = append(rj.Slots, slotJSON{
				Kind: kind, Class: sl.Class, Job: sl.Job, Start: sl.Start, End: sl.End,
			})
		}
		out.Runs = append(out.Runs, rj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a schedule serialized by MarshalJSON.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	switch in.Variant {
	case "splittable":
		s.Variant = Splittable
	case "preemptive":
		s.Variant = Preemptive
	case "nonpreemptive":
		s.Variant = NonPreemptive
	default:
		return fmt.Errorf("sched: unknown variant %q", in.Variant)
	}
	s.T = in.T
	s.Runs = nil
	for _, rj := range in.Runs {
		run := MachineRun{Count: rj.Count}
		for _, sj := range rj.Slots {
			kind := SlotJob
			job := sj.Job
			if sj.Kind == "setup" {
				kind = SlotSetup
				job = -1
			}
			run.Slots = append(run.Slots, Slot{
				Kind: kind, Class: sj.Class, Job: job, Start: sj.Start, End: sj.End,
			})
		}
		s.Runs = append(s.Runs, run)
	}
	return nil
}
