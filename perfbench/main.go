// Command perfbench is the validation stack's benchmark: one command that
// runs a named workload for a fixed time, prints every end-to-end metric
// (or, traced, every per-layer metric) by name and unit, and checks that
// the outputs are correct. It drives the stack only through its public
// calls; the traced run wraps the public layer boundaries from outside.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mc-pairwise --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare base.jsonl head.jsonl
//	bash perfbench/run.sh --reference > perfbench/reference.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// environment and settings of the run. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// backendNames is the avoidance-system menu every campaign-mix run sweeps,
// in the sys registry's order.
var backendNames = []string{"none", "acasx", "belief", "svo", "mpc", "apf"}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"mc-pairwise":     runMCPairwise,
	"campaign-mix":    runCampaignMix,
	"search-islands":  runSearchIslands,
	"service-journal": runServiceJournal,
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named measurements.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// setPercentile reports percentile p of h scaled by scale. A percentile
// with fewer than minTail samples beyond it is withheld: it reads 0 and
// the withholding is noted on standard error with the sample count.
func (m metrics) setPercentile(name string, h *hist, p, scale float64, unit string) {
	v, ok := h.quantile(p)
	if !ok {
		if h.n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s withheld: %d samples, need %d beyond p%g\n",
				name, h.n, minTail, p*100)
		}
		v = 0
	}
	m.set(name, v*scale, unit)
}

// result is the final line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env records where and how a result was measured.
type env struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Workers    int     `json:"workers"`
	Started    string  `json:"started"`
}

// run is one benchmark invocation: its settings, the work budget and the
// checks and counts the workload accumulates.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scratch  string
	ref      reference

	// setupTimes and resetup serve setup_s (see timeSetup).
	setupTimes []float64
	resetup    func() error

	tally    tally
	failures []string
	out      metrics
	notes    []string
}

// check records a failed output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note records a line for the human-readable report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// deadline returns the time at which the measured phase ends.
func (r *run) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(r.seconds * float64(time.Second)))
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase, seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root (holds BENCHMARK.json and perfbench/)")
		compare  = flag.Bool("compare", false, "compare two result sets: --compare BASE HEAD")
		refMode  = flag.Bool("reference", false, "recompute the P(NMAC) references and print them as JSON")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare wants two result files")
			return 2
		}
		return compareMain(*root, flag.Arg(0), flag.Arg(1))
	case *refMode:
		if err := writeReference(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	runFn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	ref, err := loadReference(filepath.Join(*root, "perfbench", "reference.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	scratchParent := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratchParent, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchParent, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		scratch:  scratch,
		ref:      ref,
		out:      metrics{},
	}
	// Every workload is measured on one CPU: one worker, and the runtime
	// confined to the same CPU, so contention on the other CPUs of a shared
	// machine reaches the figures as little as possible. Checks at every
	// CPU raise it again (allCPUs).
	runtime.GOMAXPROCS(1)
	e := env{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: *trace,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Workers: 1, Started: time.Now().UTC().Format(time.RFC3339),
	}
	if err := runFn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if !r.traced {
		if err := finishSetup(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: set-up: %v\n", r.workload, err)
			return 1
		}
		r.out.set("success_frac", r.tally.successFrac(), "fraction")
		r.out.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err := conform(r, *root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   r.out,
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", r.workload)
		return 1
	}
	report(os.Stderr, r)
	envLine, err := json.Marshal(map[string]env{"env": e})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", envLine, resLine)
	if !res.Correct {
		return 1
	}
	return 0
}

// conform matches the run's metrics to BENCHMARK.json: an untraced run
// reports exactly the end_to_end metrics, a traced run exactly the
// per_layer ones. A per-layer metric of a layer the workload leaves idle
// reads 0.
func conform(r *run, root string) error {
	spec, err := loadBenchSpec(root)
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if r.traced {
		want = spec.PerLayer
	}
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		got, ok := r.out[m.Name]
		switch {
		case !ok && r.traced:
			r.out.set(m.Name, 0, m.Unit)
		case !ok:
			return fmt.Errorf("%s did not report %s", r.workload, m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("%s reports %s in %s, BENCHMARK.json says %s", r.workload, m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.out {
		if !names[name] {
			return fmt.Errorf("%s reports %s, which BENCHMARK.json does not list", r.workload, name)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// report prints the metrics as a table, then the notes and any failed
// checks.
func report(w *os.File, r *run) {
	names := make([]string, 0, len(r.out))
	for name := range r.out {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	for _, name := range names {
		m := r.out[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", r.tally.attempted, r.tally.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB, or
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
