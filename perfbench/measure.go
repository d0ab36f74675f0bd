package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// Measurement helpers shared by the workloads.

// derive mixes the run seed with a stream tag and an index into an
// independent generator seed (SplitMix64 finalizer), so every input is a
// pure function of the seed.
func derive(seed, tag, i int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(tag*1_000_003+i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// closedLoop runs op(first), op(first+1), ... in whole blocks of unit
// ops until the on-clock time reaches budget and at least minOps ops ran,
// or the op list (maxOps) is exhausted.  op returns its on-clock time;
// anything it does after stopping the clock (checks) is not counted.
func closedLoop(first, unit, maxOps int, budget time.Duration, op func(i int) time.Duration) (lat []float64, onClock time.Duration) {
	i := first
	for (onClock < budget || i-first < minOps) && i+unit <= maxOps {
		for end := i + unit; i < end; i++ {
			d := op(i)
			onClock += d
			lat = append(lat, ms(d))
		}
	}
	return lat, onClock
}

// cpuTime is the CPU time all of the process's threads have used, GC
// workers included.  Unlike wall time it does not grow while the host
// has the process's CPUs descheduled (steal).
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// rusage reads the process's resource usage; zero if the call fails,
// which a reported metric then shows as unmeasured.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// memSample reads the allocator's counters around a pass.
type memSample struct{ alloc, gcs uint64 }

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{m.TotalAlloc, uint64(m.NumGC)}
}

// setGoMetrics reports the allocator's work over an untraced pass.
func setGoMetrics(rep *report, before, after memSample, ops int) {
	rep.set("go.alloc_kb_per_op", float64(after.alloc-before.alloc)/float64(ops)/1024, ops)
	rep.set("go.gc_cycles", float64(after.gcs-before.gcs), ops)
}

// noteLatency prints a pass's latency percentiles with their sample
// count.  Wall-clock latency and throughput are printed, not reported:
// on a 2-vCPU VM with CPU steal a running thread stalls for 5-20 ms about
// once a second and the whole VM runs 10-50% slower for minutes at a
// time, so two sets of ten runs of the same code disagree on them by
// more than the largest bound a reported metric may have.
func noteLatency(rep *report, lat []float64) {
	p99 := "n/a (fewer than 10 samples beyond it)"
	if v, err := tailPercentile(lat, 99); err == nil {
		p99 = fmt.Sprintf("%.4f ms", v)
	}
	p90, _ := nearestRank(lat, 90)
	rep.note("lat_p50_ms %.4f ms, lat_p90_ms %.4f ms, lat_p99_ms %s (n=%d)", median(lat), p90, p99, len(lat))
}

// blockRate is the median over consecutive blocks of ops of each block's
// ops per second of on-clock time; a burst of host contention then moves
// a few blocks, not the result.
func blockRate(lat []float64, block int) float64 {
	var rates []float64
	for i := 0; i+block <= len(lat); i += block {
		var sum float64
		for _, l := range lat[i : i+block] {
			sum += l
		}
		rates = append(rates, float64(block)/(sum/1000))
	}
	return median(rates)
}

// setOverhead reports the traced pass's p50 against the untraced one.
func setOverhead(rep *report, plain, traced []float64) {
	p, t := median(plain), median(traced)
	rep.set("trace.overhead_frac", t/p-1, len(traced))
	rep.note("trace overhead: untraced p50 %.4f ms (n=%d), traced p50 %.4f ms (n=%d)", p, len(plain), t, len(traced))
}

// setUp runs setup reps times and reports setup_s, the median CPU time
// of all the process's threads per set-up: the work a set-up does, which
// unlike its wall time the host's stalls do not inflate.  The last rep's
// state is the one the run measures.
func setUp(rep *report, reps int, setup func() error) error {
	var cpu, wall []float64
	for r := 0; r < reps; r++ {
		c0, start := cpuTime(), time.Now()
		if err := setup(); err != nil {
			return err
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
	}
	rep.set("setup_s", median(cpu), reps)
	rep.note("set-up wall time %.4f s (median of %d)", median(wall), reps)
	return nil
}

// reportSolverLayers turns the setupsched, stream and core spans of a
// traced run into their layer metrics, prints every span's self time and
// writes the spans out.
func reportSolverLayers(cfg config, rep *report, rec *recorder, ix spanIndex) error {
	s := series{}
	for _, sp := range ix.byName["setupsched.Solve"] {
		coreSolveStats(sp, ix.children[sp.ID], s)
	}
	for _, sp := range ix.byName["stream.Solve"] {
		coreSolveStats(sp, ix.children[sp.ID], s)
	}
	setCoreLayers(rep, s)
	if ss := ix.byName["setupsched.NewSolver"]; len(ss) > 0 {
		rep.set("setupsched.prepare_ms", median(durMS(ss)), len(ss))
	}
	for _, name := range []string{"setupsched.Verify", "stream.Verify"} {
		if ss := ix.byName[name]; len(ss) > 0 {
			rep.set("setupsched.verify_ms", median(durMS(ss)), len(ss))
		}
	}
	ix.selfTable(rep)
	path, err := rec.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.note("spans written to %s", path)
	return nil
}

// setCoreLayers reports the core metrics from per-solve series.
func setCoreLayers(rep *report, s series) {
	probes := s["core.probes"]
	if len(probes) == 0 {
		return
	}
	var total float64
	for _, p := range probes {
		total += p
	}
	rep.set("core.probes", total/float64(len(probes)), len(probes))
	for _, name := range []string{"core.probe_ms", "core.search_ms", "core.build_ms"} {
		rep.set(name, median(s[name]), len(s[name]))
	}
}
