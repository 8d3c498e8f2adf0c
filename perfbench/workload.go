package main

import (
	"runtime"
	"time"

	"acasxval/internal/acasx"
)

// Helpers every workload shares: set-up timing, the run's length, the
// CPU count of checks, and how rates and latencies are reported.

// setupReps is how many times each workload sets up; setup_s is the
// median. The first set-up precedes the measured phase and the others
// follow it, so one slow spell of a shared machine cannot move them all.
const setupReps = 5

// minLatencySamples is the fewest timed results a run gathers, so that
// its p90 has minTail samples beyond it; a run that has not reached it by
// its deadline keeps going, up to twice its length.
const minLatencySamples = 10 * minTail

// buildTable solves the full-resolution ACAS XU logic table.
func buildTable() (*acasx.Table, error) {
	return acasx.BuildTable(acasx.DefaultConfig())
}

// timeSetup runs the workload's set-up once, times it and keeps it for the
// repetitions that follow the measured phase (see finishSetup).
func timeSetup[T any](r *run, setup func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := setup()
	if err != nil {
		return v, err
	}
	r.setupTimes = append(r.setupTimes, time.Since(t0).Seconds())
	r.resetup = func() error {
		_, err := setup()
		return err
	}
	runtime.GC()
	return v, nil
}

// finishSetup repeats the set-up up to setupReps times and reports the
// median as setup_s.
func finishSetup(r *run) error {
	for len(r.setupTimes) < setupReps {
		runtime.GC()
		t0 := time.Now()
		if err := r.resetup(); err != nil {
			return err
		}
		r.setupTimes = append(r.setupTimes, time.Since(t0).Seconds())
	}
	r.out.set("setup_s", median(r.setupTimes), "s")
	return nil
}

// keepGoing reports whether a timed loop that has produced n results
// should start another: until the deadline, and past it (up to twice the
// run length) while the latency sample is still too small for a p90.
func keepGoing(r *run, start time.Time, n int) bool {
	now := time.Now()
	if now.Before(r.deadline(start)) {
		return true
	}
	hard := start.Add(2 * time.Duration(r.seconds*float64(time.Second)))
	return n < minLatencySamples && now.Before(hard)
}

// allCPUs runs f with GOMAXPROCS raised to every CPU.
func allCPUs[T any](f func() T) T {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	return f()
}

// scalingEff is the throughput at every CPU over NumCPU times the
// throughput at one worker, from the times of the same work.
func scalingEff(one, all time.Duration) float64 {
	if all <= 0 {
		return 0
	}
	return float64(one) / (float64(all) * float64(runtime.NumCPU()))
}

// sustained is the rate a run holds for nine results in ten: the tenth
// percentile of its per-result rates. A shared machine switches between a
// fast and a slow state for seconds at a time, in proportions that vary
// from run to run; the median follows the proportion, the slow decile
// stays in the slow state (see README.md).
func sustained(rates []float64) float64 {
	v, _ := percentile(rates, 0.1)
	return v
}

// setLatency reports the p90 of a workload's per-result times, and notes
// the median and the sample count.
func setLatency(r *run, latency []float64) {
	p50, _ := percentile(latency, 0.5)
	p90, ok := percentile(latency, 0.9)
	if !ok {
		r.note("latency_s_p90 withheld: %d samples, need %d", len(latency), minLatencySamples)
		p90 = 0
	}
	r.out.set("latency_s_p90", p90, "s")
	r.note("latency over %d results: p50 %.6gs, p90 %.6gs", len(latency), p50, p90)
}
