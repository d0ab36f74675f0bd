package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request, timed relative to the phase start.
type sample struct {
	due, sent, done time.Duration
	ok              bool // false: never sent, the phase stopped first
}

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent - s.due }

// latency runs from when the request was due, not from when it was sent,
// so a stall is charged to every request it delays.
func (s sample) latency() time.Duration { return s.done - s.due }

// openLoop sends request i at start+due[i] from workers callers, each
// holding one connection.  A caller still busy when the next request
// falls due sends it as soon as it is free; that lateness is recorded as
// lag and is part of the request's latency.  Once a request would go out
// more than abortLag late the backlog is beyond saving, and the phase
// stops taking new requests; those stay !ok.
func openLoop(due []time.Duration, workers int, abortLag time.Duration, send func(worker, i int)) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var stop atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				if sent-due[i] > abortLag {
					stop.Store(true)
					return
				}
				send(w, i)
				out[i] = sample{due: due[i], sent: sent, done: time.Since(start), ok: true}
			}
		}()
	}
	wg.Wait()
	return out
}

// uniformDue spaces n requests evenly at rate per second.
func uniformDue(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}
