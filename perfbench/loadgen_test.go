package main

import (
	"testing"
	"time"
)

// A stall in one request must make the requests behind it late, and that
// lateness must show both as lag and in their latency, which is timed
// from when each request was due.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const gap, stall = 2 * time.Millisecond, 40 * time.Millisecond
	due := uniformDue(30, float64(time.Second/gap))
	samples := openLoop(due, 1, time.Second, func(_, i int) {
		if i == 3 {
			time.Sleep(stall)
		}
	})
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d not sent", i)
		}
		if s.lag() < 0 || s.latency() < s.lag() {
			t.Fatalf("request %d: lag %v latency %v", i, s.lag(), s.latency())
		}
	}
	if got := samples[3].latency(); got < stall {
		t.Errorf("stalled request latency %v < stall %v", got, stall)
	}
	// Request 4 was due 2 ms after request 3 but could only go out when
	// the stall ended.
	if got, want := samples[4].lag(), stall-gap-5*time.Millisecond; got < want {
		t.Errorf("request 4 lag %v, want at least %v", got, want)
	}
	late := 0
	for _, s := range samples[4:] {
		if s.lag() > gap {
			late++
		}
	}
	if late < 10 {
		t.Errorf("only %d requests behind the stall were counted late", late)
	}
}

func TestOpenLoopStopsOnRunawayBacklog(t *testing.T) {
	due := uniformDue(50, 1000)
	samples := openLoop(due, 1, 5*time.Millisecond, func(_, i int) { time.Sleep(3 * time.Millisecond) })
	sent := 0
	for _, s := range samples {
		if s.ok {
			sent++
		}
	}
	if sent == 0 || sent == len(samples) {
		t.Errorf("sent %d of %d; a backlog beyond the abort lag must stop the phase early", sent, len(samples))
	}
}

func TestUniformDue(t *testing.T) {
	due := uniformDue(4, 200)
	want := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("due %v, want %v", due, want)
		}
	}
}
