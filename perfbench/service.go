package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/encounter"
	"acasxval/internal/serve"
	"acasxval/internal/stats"
)

// Service jobs are small campaigns: three pairwise presets x three
// table-free backends (the server's menu has the table ones too), 16
// episodes per cell, so journal appends, the cell cache and supervision
// weigh in beside simulation.
const (
	serviceSamples = 16
	servicePresets = 3
	primingJobs    = 8
)

var serviceSystems = []string{"none", "svo", "apf"}

// serviceJobText is the params text of job number n of client c.
func serviceJobText(seed uint64, c, n int) string {
	rng := stats.NewChildRNG(stats.DeriveSeed(seed, c), n)
	names := encounter.PresetNames()
	perm := rng.Perm(len(names))
	presets := make([]string, servicePresets)
	for i := range presets {
		presets[i] = names[perm[i]]
	}
	return fmt.Sprintf(`campaign.name = svc-%d-%d
campaign.presets = %s
campaign.systems = %s
campaign.samples = %d
campaign.seed = %d
`, c, n, strings.Join(presets, ", "), strings.Join(serviceSystems, ", "), serviceSamples, rng.Uint64()>>1)
}

// jobRecord is one job a client submitted.
type jobRecord struct {
	text     string
	id       string
	resubmit bool
	submit   time.Time
	done     time.Time
	status   serve.JobStatus
	err      error
}

// copyJournal copies the journal of dir src into a fresh dir dst.
func copyJournal(src, dst string) error {
	data, err := os.ReadFile(filepath.Join(src, serve.JournalFile))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dst, serve.JournalFile), data, 0o644)
}

// journalSize returns the journal's record and byte counts.
func journalSize(dir string) (records, size int, err error) {
	data, err := os.ReadFile(filepath.Join(dir, serve.JournalFile))
	if err != nil {
		return 0, 0, err
	}
	return bytes.Count(data, []byte{'\n'}), len(data), nil
}

// runServiceJournal measures the validation service in process: a
// one-worker server on a state dir in the checkout, NumCPU closed-loop
// clients each submitting a fresh small campaign job and then resubmitting
// it verbatim (a cache hit), and one Close/reopen at half time that
// replays the journal.
func runServiceJournal(r *run) error {
	primed := filepath.Join(r.scratch, "primed")
	if err := primeService(r, primed, campaign.DefaultSystems(nil)); err != nil {
		return err
	}
	// Set-up is what a service started with its logic table pays before
	// it accepts jobs: the table build, and the replay of the journal it
	// finds in its state dir.
	setupN := 0
	systems, err := timeSetup(r, func() (campaign.SystemSet, error) {
		setupN++
		dir := filepath.Join(r.scratch, fmt.Sprintf("setup-%d", setupN))
		if err := copyJournal(primed, dir); err != nil {
			return nil, err
		}
		table, err := buildTable()
		if err != nil {
			return nil, err
		}
		systems := campaign.DefaultSystems(table)
		srv, err := serve.NewServer(serve.Config{StateDir: dir, Systems: systems, Workers: 1})
		if err != nil {
			return nil, err
		}
		return systems, srv.Close()
	})
	if err != nil {
		return err
	}

	var tr *tracer
	if r.traced {
		tr = &tracer{}
	}
	dir := filepath.Join(r.scratch, "state")
	if err := copyJournal(primed, dir); err != nil {
		return err
	}
	primedRep, err := serve.ReplayJournal(dir)
	if err != nil {
		return err
	}
	startRecords, startBytes, err := journalSize(dir)
	if err != nil {
		return err
	}
	cfg := serve.Config{StateDir: dir, Systems: tr.systems(systems), Workers: 1}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}

	clients := runtime.NumCPU()
	var mu sync.Mutex
	var jobs []*jobRecord
	var finished atomic.Int64
	next := make([]int, clients)
	submitWait := func(s *serve.Server, text string, resubmit bool) *jobRecord {
		j := &jobRecord{text: text, resubmit: resubmit, submit: time.Now()}
		st, err := s.Submit(serve.KindCampaign, text)
		if err == nil {
			j.id = st.ID
			st, err = s.WaitJob(context.Background(), st.ID)
			j.status = st
		}
		j.done, j.err = time.Now(), err
		mu.Lock()
		jobs = append(jobs, j)
		mu.Unlock()
		finished.Add(1)
		return j
	}
	start := time.Now()
	hard := start.Add(2 * time.Duration(r.seconds*float64(time.Second)))
	phase := func(s *serve.Server, until time.Time, last bool) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					now := time.Now()
					more := now.Before(until) ||
						(last && finished.Load() < minLatencySamples && now.Before(hard))
					if !more {
						return
					}
					text := serviceJobText(r.seed, c, next[c])
					next[c]++
					if first := submitWait(s, text, false); first.err == nil {
						submitWait(s, text, true)
					}
				}
			}(c)
		}
		wg.Wait()
	}

	half := r.deadline(start).Sub(start) / 2
	phase(srv, start.Add(half), false)
	if err := srv.Close(); err != nil {
		return err
	}
	replayRecords, _, err := journalSize(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	srv, err = serve.NewServer(cfg)
	if err != nil {
		return err
	}
	replay := time.Since(t0)
	phase(srv, r.deadline(start), true)
	if err := srv.Close(); err != nil {
		return err
	}
	wall := time.Since(start) - replay

	// Tally and check every job.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	var latency []float64
	var cells, cached float64
	byText := map[string][]*jobRecord{}
	for _, j := range jobs {
		if j.err != nil {
			r.tally.addFailed(servicePresets*len(serviceSystems), servicePresets*len(serviceSystems))
			r.check(false, "service job %q: %v", j.id, j.err)
			continue
		}
		st := j.status
		bad := 0
		switch st.Status {
		case serve.StatusFailed:
			bad = st.Cells
		case serve.StatusDegraded:
			bad = st.Poisoned
		}
		r.tally.addFailed(st.Cells, bad)
		r.check(st.Status == serve.StatusDone, "service job %s ended %s: %s", j.id, st.Status, st.Error)
		latency = append(latency, j.done.Sub(j.submit).Seconds())
		cells += float64(st.Cells)
		cached += float64(st.CacheHits)
		byText[j.text] = append(byText[j.text], j)
	}
	for _, group := range byText {
		if len(group) < 2 {
			continue
		}
		for _, ext := range []string{".jsonl", ".summary.txt"} {
			a, errA := os.ReadFile(filepath.Join(dir, group[0].id+ext))
			b, errB := os.ReadFile(filepath.Join(dir, group[1].id+ext))
			r.check(errA == nil && errB == nil && bytes.Equal(a, b),
				"service: resubmitted job %s%s differs from %s%s", group[1].id, ext, group[0].id, ext)
		}
	}
	if len(jobs) > 0 && jobs[0].err == nil {
		// The service's artifact must be the bytes of an in-process
		// campaign run of the same spec.
		spec, err := parseCampaign(jobs[0].text)
		var buf bytes.Buffer
		if err == nil {
			_, err = campaign.RunContext(context.Background(), spec, systems, &buf)
		}
		art, rerr := os.ReadFile(filepath.Join(dir, jobs[0].id+".jsonl"))
		r.check(err == nil && rerr == nil && bytes.Equal(buf.Bytes(), art),
			"service: job %s artifact differs from an in-process campaign run", jobs[0].id)
	}

	if !r.traced {
		// A round is one client's fresh job and its resubmission. In a
		// closed loop the service's throughput is the client count times
		// a round's work over the round's time.
		var cellRates, episodeRates []float64
		for _, group := range byText {
			if len(group) < 2 {
				continue
			}
			fresh, again := group[0].status, group[1].status
			round := group[1].done.Sub(group[0].submit).Seconds()
			cellRates = append(cellRates, float64(clients*(fresh.Cells+again.Cells))/round)
			episodeRates = append(episodeRates, float64(clients*(fresh.Cells-fresh.CacheHits)*serviceSamples)/round)
		}
		r.out.set("episodes_per_s", sustained(episodeRates), "1/s")
		r.out.set("units_per_s", sustained(cellRates), "1/s")
		setLatency(r, latency)
		r.note("%d jobs from %d closed-loop clients in %.2fs (journal replay at half time)", len(jobs), clients, wall.Seconds())
		return nil
	}

	costs, err := measureLayers(r.seed, r.scratch)
	if err != nil {
		return err
	}
	ts := tr.summary()
	rep, err := serve.ReplayJournal(dir)
	if err != nil {
		return err
	}
	var cen census
	spec, err := parseCampaign(serviceJobText(r.seed, 0, 0))
	if err != nil {
		return err
	}
	retries := 0
	for key, rec := range rep.Cells {
		retries += rec.Attempts - 1
		if _, old := primedRep.Cells[key]; !old {
			addCellCensus(&cen, spec, rec.Result)
		}
	}
	layerMetrics(r.out, costs, cen, ts)
	r.out.set("trace.overhead_frac", inProcessOverhead(r, jobs[0].text, systems), "fraction")

	// Queue wait: jobs run one at a time in id order, so each waits from
	// its submission until its predecessor finished.
	var waits []float64
	for i, j := range jobs {
		w := 0.0
		if i > 0 && jobs[i-1].err == nil && j.err == nil {
			w = max(0, jobs[i-1].done.Sub(j.submit).Seconds()*1e3)
		}
		waits = append(waits, w)
	}
	r.out.set("serve.queue_wait_ms_p50", median(waits), "ms")
	if cells > 0 {
		r.out.set("serve.cache_hit_frac", cached/cells, "fraction")
	}
	r.out.set("serve.retries", float64(retries), "count")
	r.out.set("serve.quarantined", float64(len(rep.Poisoned)), "count")
	r.out.set("serve.replay_ms", float64(replay)/1e6, "ms")
	r.out.set("serve.replay_records", float64(replayRecords), "count")
	endRecords, endBytes, err := journalSize(dir)
	if err != nil {
		return err
	}
	if len(jobs) > 0 {
		r.out.set("durable.records_per_job", float64(endRecords-startRecords)/float64(len(jobs)), "1/job")
		r.out.set("durable.bytes_per_job", float64(endBytes-startBytes)/float64(len(jobs)), "B/job")
	}
	return nil
}

// inProcessOverhead times one job's campaign in process, traced and
// untraced, five times each, and returns the traced median over the
// untraced median minus one: the wrappers' cost on the service's cells.
func inProcessOverhead(r *run, text string, systems campaign.SystemSet) float64 {
	spec, err := parseCampaign(text)
	if err != nil {
		r.check(false, "service: %v", err)
		return 0
	}
	var plain, traced []float64
	for i := 0; i < 5; i++ {
		for _, tr := range []*tracer{nil, {}} {
			t0 := time.Now()
			_, err := campaign.RunContext(context.Background(), spec, tr.systems(systems), nil)
			r.check(err == nil, "service: in-process campaign: %v", err)
			if tr == nil {
				plain = append(plain, time.Since(t0).Seconds())
			} else {
				traced = append(traced, time.Since(t0).Seconds())
			}
		}
	}
	return median(traced)/median(plain) - 1
}

// primeService gives the service a journal to replay at set-up: a few jobs
// run to completion in dir.
func primeService(r *run, dir string, systems campaign.SystemSet) error {
	srv, err := serve.NewServer(serve.Config{StateDir: dir, Systems: systems, Workers: 1})
	if err != nil {
		return err
	}
	for n := 0; n < primingJobs; n++ {
		st, err := srv.Submit(serve.KindCampaign, serviceJobText(r.seed, -1, n))
		if err == nil {
			st, err = srv.WaitJob(context.Background(), st.ID)
		}
		if err == nil && st.Status != serve.StatusDone {
			err = fmt.Errorf("priming job %s ended %s: %s", st.ID, st.Status, st.Error)
		}
		if err != nil {
			srv.Close()
			return err
		}
	}
	return srv.Close()
}
