package main

import (
	"math"
	"os"
	"path/filepath"

	"acasxval/internal/durable"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/montecarlo"
	"acasxval/internal/serve"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
	"acasxval/internal/tracker"
	"acasxval/internal/uav"
)

// layerCosts are isolated per-call timings of each layer's public call,
// in nanoseconds unless the name says otherwise. They are measured on the
// same inputs for every workload; the workload supplies only the calls per
// episode.
type layerCosts struct {
	sampleNs  float64 // encounter: one counter-seeded encounter draw
	stepNs    float64 // uav: one vehicle integration step
	observeNs float64 // uav: one ADS-B observation
	degradeNs float64 // fault: one report through the severe profile
	updateNs  float64 // tracker: one filter update
	monitorNs float64 // sim: one separation observation (both monitors)
	appendNs  hist    // durable: serve.Journal.Append with fsync
	atomicUs  float64 // durable: one WriteFileAtomic of a job artifact, us
}

// timeLoop runs op(i) for n iterations in reps repetitions and returns the
// median nanoseconds per call.
func timeLoop(reps, n int, op func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := nanotime()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[r] = float64(nanotime()-t0) / float64(n)
	}
	return median(per)
}

// sink keeps the timed calls' results alive.
var sink float64

// measureLayers times each layer's public call in isolation. scratch is a
// directory for the durable-layer probes.
func measureLayers(seed uint64, scratch string) (layerCosts, error) {
	var c layerCosts
	const reps, n = 5, 20000

	model := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.DefaultEncounterModel()}}.Prepared()
	var rng stats.ReseedableRNG
	var buf [encounter.NumParams]float64
	params := make([]encounter.Params, 1)
	c.sampleNs = timeLoop(reps, n, func(i int) {
		m := model.SampleInto(rng.SeedChild(seed, i), &buf, params)
		sink += m.Intruders[0].TimeToCPA
	})

	p := encounter.PresetHeadOn()
	own, intr := encounter.Generate(p)
	vehicle, err := uav.New(uav.DefaultConfig(), own)
	if err != nil {
		return c, err
	}
	dyn := sim.Rand(seed, 0)
	climb := uav.Command{HasVS: true, TargetVS: 7.5}
	c.stepNs = timeLoop(reps, n, func(i int) {
		// Episodes of 600 steps, commanded to climb for their second
		// half, as an alerted aircraft would be.
		switch i % 600 {
		case 0:
			vehicle.Reset(own)
		case 300:
			vehicle.Command(climb)
		}
		vehicle.Step(0.1, dyn)
	})
	sink += vehicle.State().Pos.Z

	sensor := uav.DefaultSensorModel()
	sens := sim.Rand(seed, 1)
	c.observeNs = timeLoop(reps, n, func(i int) {
		rep := sensor.Observe(intr, float64(i), sens)
		sink += rep.Pos.X
	})

	prof, err := fault.Preset("severe")
	if err != nil {
		return c, err
	}
	var ch fault.Channel
	var dl fault.DelayLine
	dl.Init(prof.Latency)
	flt := sim.Rand(seed, 2)
	rep := sensor.Observe(intr, 0, sens)
	c.degradeNs = timeLoop(reps, n, func(i int) {
		// The runner's degrade step: burst channel, range limit, delay.
		r := rep
		if prof.BurstEnabled() && ch.Step(prof, flt) {
			r.Valid = false
		}
		if prof.DetectionRange > 0 && own.Pos.DistanceSquaredTo(intr.Pos) > prof.DetectionRange*prof.DetectionRange {
			r.Valid = false
		}
		if prof.Latency > 0 {
			out, ok := dl.Push(r)
			if !ok {
				out.Valid = false
			}
			r = out
		}
		if r.Valid {
			sink++
		}
	})

	tk, err := tracker.New(tracker.DefaultConfig())
	if err != nil {
		return c, err
	}
	vel := intr.VelVec()
	c.updateNs = timeLoop(reps, n, func(i int) {
		if i%60 == 0 {
			tk.Reset()
		}
		t := float64(i % 60)
		est := tk.Update(intr.Pos.Add(vel.Scale(t)), vel, t)
		sink += est.Pos.X
	})

	prox := sim.NewProximityMeasurer()
	acc := sim.NewAccidentDetector()
	c.monitorNs = timeLoop(reps, n, func(i int) {
		if i%1200 == 0 {
			prox.Reset()
			acc.Reset()
		}
		// The runner's observe step on one sub-sampled position pair.
		f := float64(i%1200) / 1200
		a := own.Pos.Lerp(own.Pos.Add(own.VelVec().Scale(60)), f)
		b := intr.Pos.Lerp(intr.Pos.Add(vel.Scale(60)), f)
		d2h := a.HorizontalDistanceSquaredTo(b)
		dv := a.VerticalDistanceTo(b)
		now := float64(i%1200) * 0.05
		prox.ObserveSq(now, d2h, dv, d2h+dv*dv)
		acc.ObserveSq(now, d2h, dv)
	})
	sink += prox.MinHorizontal()

	return c, measureDurable(&c, scratch)
}

// measureDurable times journal appends (each fsyncs) and atomic artifact
// writes in a scratch state directory.
func measureDurable(c *layerCosts, scratch string) error {
	dir := filepath.Join(scratch, "durable-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := serve.OpenJournal(dir)
	if err != nil {
		return err
	}
	rec := serve.Record{Type: "cell", Cell: &serve.CellRecord{
		Hash: "0123456789abcdef0123456789abcdef", Index: 3, Seed: 42, Attempts: 1,
	}}
	rec.Cell.Result.Params = encounter.PresetCrossing().Vector()
	rec.Cell.Result.Samples = 16
	const appends = 1000
	for i := 0; i < appends; i++ {
		t0 := nanotime()
		if err := j.Append(rec); err != nil {
			j.Close()
			return err
		}
		c.appendNs.add(nanotime() - t0)
	}
	if err := j.Close(); err != nil {
		return err
	}
	artifact := make([]byte, 4096)
	for i := range artifact {
		artifact[i] = byte('a' + i%26)
	}
	path := filepath.Join(dir, "artifact.jsonl")
	per := make([]float64, 0, 30)
	for i := 0; i < cap(per); i++ {
		t0 := nanotime()
		if err := durable.WriteFileAtomic(path, artifact); err != nil {
			return err
		}
		per = append(per, float64(nanotime()-t0))
	}
	c.atomicUs = median(per) / 1e3
	return nil
}

// census counts the calls each layer receives over a workload's episodes.
// The engine's loop fixes them from the encounter alone: an episode lasts
// MaxTimeToCPA + Overtime, every aircraft steps every Dt, every decision
// period the ownship surveils each of the K intruders and each intruder
// the ownship (one ADS-B observation, one fault-channel pass when faults
// are on, one tracker update or prediction each), and every step feeds the
// monitors MonitorSubSteps positions per intruder.
type census struct {
	episodes     float64
	steps        float64
	observes     float64
	degrades     float64
	trackerCalls float64
	monitorObs   float64
}

// add records count episodes of encounter m.
func (c *census) add(m encounter.MultiParams, run sim.RunConfig, faulted bool, count int) {
	if count <= 0 {
		return
	}
	k := float64(m.NumIntruders())
	d := m.MaxTimeToCPA() + run.Overtime
	steps := math.Ceil(d/run.Dt - 1e-9)
	cycles := math.Ceil(d/run.DecisionPeriod - 1e-9)
	sub := float64(run.MonitorSubSteps)
	if sub < 1 {
		sub = 1
	}
	n := float64(count)
	c.episodes += n
	c.steps += n * (k + 1) * steps
	links := n * 2 * k * cycles
	c.observes += links
	if faulted {
		c.degrades += links
	}
	if run.UseTracker {
		c.trackerCalls += links
	}
	c.monitorObs += n * k * (1 + steps*sub)
}

// perEpisode divides x by the episode count.
func (c *census) perEpisode(x float64) float64 {
	if c.episodes == 0 {
		return 0
	}
	return x / c.episodes
}

// sampleEpisodes adds the episodes of one Monte-Carlo estimate to the
// census by redrawing its encounters: episode i samples from the stream
// seeded by (seed, i), as the estimator does.
func (c *census) sampleEpisodes(model montecarlo.MultiEncounterModel, run sim.RunConfig, faulted bool, seed uint64, samples int) {
	model = model.Prepared()
	var rng stats.ReseedableRNG
	var buf [encounter.NumParams]float64
	params := make([]encounter.Params, model.NumIntruders())
	for i := 0; i < samples; i++ {
		m := model.SampleInto(rng.SeedChild(seed, i), &buf, params)
		c.add(m, run, faulted, 1)
	}
}

// layerMetrics assembles the per-layer metrics shared by every workload
// from the isolated costs, the census and the trace, and the
// reconciliation of their weighted sum against the measured episode time.
func layerMetrics(out metrics, costs layerCosts, cen census, tr traceSummary) {
	out.set("encounter.sample_ns", costs.sampleNs, "ns")
	out.set("encounter.samples", cen.episodes, "count")
	out.set("uav.step_ns", costs.stepNs, "ns")
	out.set("uav.steps_per_episode", cen.perEpisode(cen.steps), "1/episode")
	out.set("uav.observe_ns", costs.observeNs, "ns")
	out.set("fault.degrade_ns", costs.degradeNs, "ns")
	out.set("fault.calls_per_episode", cen.perEpisode(cen.degrades), "1/episode")
	out.set("tracker.update_ns", costs.updateNs, "ns")
	out.set("tracker.updates_per_episode", cen.perEpisode(cen.trackerCalls), "1/episode")
	out.set("sim.monitor_ns", costs.monitorNs, "ns")
	out.set("sim.observations_per_episode", cen.perEpisode(cen.monitorObs), "1/episode")
	p50, _ := tr.episode.quantile(0.5)
	out.set("sim.episode_us_p50", p50/1e3, "us")
	out.setPercentile("sim.episode_us_p99", &tr.episode, 0.99, 1e-3, "us")
	out.set("sim.episode_us_mean", tr.episode.mean()/1e3, "us")

	for _, b := range backendNames {
		s := tr.backends[b]
		if s == nil {
			s = &backendSummary{}
		}
		p50, _ := s.decide.quantile(0.5)
		out.set("sys."+b+".decide_ns_p50", p50, "ns")
		out.setPercentile("sys."+b+".decide_ns_p99", &s.decide, 0.99, 1, "ns")
		perEp := 0.0
		if s.episodes > 0 {
			perEp = float64(s.decisions) / float64(s.episodes)
		}
		out.set("sys."+b+".decisions", perEp, "1/episode")
		frac := 0.0
		if s.decisions > 0 {
			frac = float64(s.alerts) / float64(s.decisions)
		}
		out.set("sys."+b+".alert_frac", frac, "fraction")
	}
	share := 0.0
	if ep := tr.episodeNs(); ep > 0 {
		share = tr.decideNs / ep
	}
	out.set("sys.decide_share", share, "fraction")

	out.set("durable.append_us_p50", q(&costs.appendNs, 0.5)/1e3, "us")
	out.setPercentile("durable.append_us_p99", &costs.appendNs, 0.99, 1e-3, "us")
	out.set("durable.atomic_write_us", costs.atomicUs, "us")

	// Reconciliation: the isolated per-call costs weighted by the calls
	// per episode, plus the traced decision time per episode, over the
	// traced mean episode time (a sum of means reconciles with a mean).
	ratio := 0.0
	if tr.episodes > 0 && cen.episodes > 0 && tr.episode.n > 0 {
		sum := costs.sampleNs +
			costs.stepNs*cen.perEpisode(cen.steps) +
			costs.observeNs*cen.perEpisode(cen.observes) +
			costs.degradeNs*cen.perEpisode(cen.degrades) +
			costs.updateNs*cen.perEpisode(cen.trackerCalls) +
			costs.monitorNs*cen.perEpisode(cen.monitorObs) +
			tr.decideNs/float64(tr.episodes)
		ratio = sum / tr.episode.mean()
	}
	out.set("layers.reconcile_ratio", ratio, "ratio")
}

// q returns a histogram percentile regardless of the tail rule (for
// medians).
func q(h *hist, p float64) float64 {
	v, _ := h.quantile(p)
	return v
}
