package main

import (
	"sync"
	"sync/atomic"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/geom"
	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

// The traced run wraps every avoidance system a factory or system set hands
// out: the decision layer and, through its Reset, the episode boundary.
// Untraced runs install no wrapper. The campaign JSONL writer and the
// search observer are timed in every run, because the moments results
// arrive are what a user of the stream sees.

// epoch anchors the monotonic clock the wrappers read.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// decideSample is the share of decision cycles timed: one in four keeps
// the clock reads' cost a small part of a cheap backend's decision.
const decideSample = 4

// backendSummary is one backend's record. Counts cover completed episodes
// only (an episode completes at its ownship's next Reset), so per-episode
// ratios are unbiased; decide holds the sampled decision times in ns.
type backendSummary struct {
	decide       hist
	decisions    int64
	ownDecisions int64
	alerts       int64
	episodes     int64
}

// tracer collects what the wrappers measure. A nil *tracer wraps nothing.
type tracer struct {
	mu       sync.Mutex
	backends map[string]*backendSummary
	// episode holds the Reset-to-Reset intervals of the ownship systems:
	// one episode plus the estimator's per-episode bookkeeping and the
	// next encounter draw.
	episode hist
	ids     int64
	// owner is the id of the ownship wrapper that last ran an event.
	owner atomic.Int64
}

// timedSystem counts every decision cycle of the wrapped system and times
// one in decideSample of them. It implements sim.AvoidanceSystem, so the
// engine calls DecideTracks on it directly and the wrapped system keeps its
// own pairwise/multi dispatch through sim.Adapt: decisions are
// bit-identical to the unwrapped system's.
//
// A wrapper is used by one goroutine at a time (the engine gives every
// world its own systems). It keeps the episode in flight to itself and
// folds it into the tracer, under the tracer's lock, at the next Reset.
type timedSystem struct {
	inner sim.AvoidanceSystem
	pair  sim.System
	tr    *tracer
	b     *backendSummary
	own   bool
	id    int64

	decisions, alerts int64
	samples           [64]int64
	n                 int
	started           bool
	last              int64
	// shared marks an episode during which another ownship wrapper ran:
	// the search's islands interleave on one CPU, so its interval is not
	// one episode's time.
	shared bool
}

var (
	_ sim.System          = (*timedSystem)(nil)
	_ sim.AvoidanceSystem = (*timedSystem)(nil)
)

func (s *timedSystem) Decide(now float64, own uav.State, pos, vel geom.Vec3, c sim.Constraint) sim.Decision {
	return s.pair.Decide(now, own, pos, vel, c)
}

func (s *timedSystem) DecideTracks(now float64, own uav.State, tracks []geom.Track, c sim.Constraint) sim.Decision {
	if s.own {
		s.claim()
	}
	s.decisions++
	var d sim.Decision
	if s.decisions%decideSample == 0 {
		t0 := nanotime()
		d = s.inner.DecideTracks(now, own, tracks, c)
		s.samples[s.n] = nanotime() - t0
		s.n++
		if s.n == len(s.samples) {
			s.tr.mu.Lock()
			s.flushSamples()
			s.tr.mu.Unlock()
		}
	} else {
		d = s.inner.DecideTracks(now, own, tracks, c)
	}
	if d.Alerting {
		s.alerts++
	}
	return d
}

func (s *timedSystem) Reset() {
	if s.own {
		s.claim()
	}
	now := nanotime()
	s.tr.mu.Lock()
	s.flushSamples()
	if s.started {
		s.b.decisions += s.decisions
		s.b.alerts += s.alerts
		if s.own {
			s.b.ownDecisions += s.decisions
			s.b.episodes++
			if !s.shared {
				s.tr.episode.add(now - s.last)
			}
		}
	}
	s.tr.mu.Unlock()
	s.decisions, s.alerts = 0, 0
	s.started, s.last, s.shared = true, now, false
	s.inner.Reset()
}

// flushSamples moves the sampled decision times into the backend's
// histogram; the caller holds the tracer's lock.
func (s *timedSystem) flushSamples() {
	for _, v := range s.samples[:s.n] {
		s.b.decide.add(v)
	}
	s.n = 0
}

// claim records that this ownship wrapper's world is running, and marks
// its episode shared when another world ran since its last event.
func (s *timedSystem) claim() {
	if s.tr.owner.Load() != s.id {
		s.tr.owner.Store(s.id)
		s.shared = true
	}
}

func (t *tracer) wrap(backend string, s sim.System, own bool) sim.System {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.backends == nil {
		t.backends = map[string]*backendSummary{}
	}
	b := t.backends[backend]
	if b == nil {
		b = &backendSummary{}
		t.backends[backend] = b
	}
	t.ids++
	return &timedSystem{inner: sim.Adapt(s), pair: s, tr: t, b: b, own: own, id: t.ids}
}

// factory wraps a pairwise system factory.
func (t *tracer) factory(backend string, f montecarlo.SystemFactory) montecarlo.SystemFactory {
	if t == nil {
		return f
	}
	return func() (sim.System, sim.System) {
		own, intr := f()
		return t.wrap(backend, own, true), t.wrap(backend, intr, false)
	}
}

// systems wraps every factory of a campaign system set.
func (t *tracer) systems(set campaign.SystemSet) campaign.SystemSet {
	if t == nil {
		return set
	}
	out := make(campaign.SystemSet, len(set))
	for name, f := range set {
		out[name] = t.factory(name, f)
	}
	return out
}

// traceSummary is a snapshot of the tracer.
type traceSummary struct {
	backends map[string]*backendSummary
	episode  hist
	episodes int64
	decideNs float64
}

func (t *tracer) summary() traceSummary {
	s := traceSummary{backends: map[string]*backendSummary{}}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.episode = t.episode
	for name, b := range t.backends {
		c := *b
		s.backends[name] = &c
		s.episodes += b.episodes
		s.decideNs += b.decide.mean() * float64(b.decisions)
	}
	return s
}

// episodeNs estimates the total time of the completed episodes: the
// shared ones are missing from the intervals, so the mean of the rest
// stands in for them.
func (s traceSummary) episodeNs() float64 {
	return s.episode.mean() * float64(s.episodes)
}
