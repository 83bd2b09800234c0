// Command perfbench is the repository benchmark: it runs one named
// workload against the placement service, the hyperscale manager loop or
// the sweep harness, checks the outputs, and prints one JSON line with
// the end-to-end metrics (or, with --trace 1, the per-layer metrics).
//
//	bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 15 --trace 0
//
// Every metric, its unit, direction, layer and workload is declared in
// LEDGER.json, which is embedded here; see README.md for the map.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/predict"
)

//go:embed LEDGER.json
var ledgerJSON []byte

// ledger is the part of LEDGER.json the binary and its tests read: the
// workloads and every metric's unit, direction and workloads. The rest of
// the file (layers, seeds, machine shape, profiles, observed spreads) is
// documentation.
type ledger struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	Metrics []ledgerMetric `json:"metrics"`
}

type ledgerMetric struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"` // "end_to_end" or "per_layer"
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Workloads measure the metric; every other workload reports 0 for
	// it (a per-layer metric of a layer that workload does not exercise).
	Workloads []string `json:"workloads"`
}

func loadLedger() (*ledger, error) {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return nil, fmt.Errorf("perfbench: parsing LEDGER.json: %w", err)
	}
	return &l, nil
}

// env is what a workload run is given: its seed, its measuring budget and
// whether this is the traced run.
type env struct {
	seed     uint64
	budget   time.Duration
	deadline time.Time
	cpu0     cpuTicks // host CPU counters when the clock started
	traced   bool
	spans    *spanLog // nil when untraced
	work     string   // scratch directory inside the checkout
}

// outcome is what a workload run reports back.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check records a failed output check: the run is then not correct, and
// the check counts as one failed operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps workload names to their runners.
var workloads = map[string]func(*env, *outcome) error{
	"serve-churn":       runServeChurn,
	"hyperscale-steady": runHyperscale,
	"sweep-matrix":      runSweepMatrix,
}

// setupReps is how many times each workload sets up per run; setup_s is
// the median.
const setupReps = 3

// timeSetup runs set-up reps times and returns the median wall seconds.
func timeSetup(f func(rep int) error) (float64, error) {
	secs := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := f(rep); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// stealLimit is the share of the machine's CPU time a hypervisor may
// give to other guests during an episode before the episode counts as
// disturbed. On a 2-vCPU virtual machine, runs with a quarter of the CPU
// stolen made serve-churn nearly twice as slow, and runs with a few
// percent stolen were up to 10% slower, so disturbed episodes are re-run
// rather than let into the medians.
const stealLimit = 0.02

// episode is one finished episode: what the workload recorded, whether it
// was traced, and whether the host disturbed it.
type episode[R any] struct {
	rec       R
	traced    bool
	disturbed bool
	secs      float64
}

// runEpisodes runs ep until the budget is spent (never starting one that
// would overrun it by the median episode length) and at least
// minEpisodes of them ran undisturbed. While too few are undisturbed it
// keeps going, up to half the budget again. In a traced run odd episodes
// are traced and even ones are not. It returns every episode; checks run
// inside ep, on every episode, and metrics come from calm ones.
func runEpisodes[R any](e *env, o *outcome, minEpisodes int, ep func(i int, traced bool) (R, error)) ([]episode[R], error) {
	var all []episode[R]
	var secs []float64
	calm := 0
	hard := e.deadline.Add(e.budget / 2)
	for i := 0; ; i++ {
		next := time.Now().Add(time.Duration(median(secs) * float64(time.Second)))
		if len(all) >= minEpisodes && (next.After(hard) || (calm >= minEpisodes && next.After(e.deadline))) {
			break
		}
		traced := e.traced && i%2 == 1
		// Start every episode from a collected heap, so one episode's
		// garbage is not charged to the next.
		runtime.GC()
		cpu0, err := readCPUTicks()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rec, err := ep(i, traced)
		if err != nil {
			return nil, err
		}
		ran := episode[R]{rec: rec, traced: traced, secs: time.Since(t0).Seconds()}
		cpu1, err := readCPUTicks()
		if err != nil {
			return nil, err
		}
		ran.disturbed = cpu1.stealFrac(cpu0) > stealLimit
		all = append(all, ran)
		secs = append(secs, ran.secs)
		if !ran.disturbed {
			calm++
		}
	}
	cpu1, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	steal := cpu1.stealFrac(e.cpu0)
	o.values["host.steal_frac"] = steal
	o.values["host.disturbed_episodes"] = float64(len(all) - calm)
	fmt.Fprintf(os.Stderr, "perfbench: %d episodes, %d disturbed; the host stole %.1f%% of the CPU time meanwhile\n",
		len(all), len(all)-calm, 100*steal)
	if e.traced {
		r, ok := tracingOverhead(calmOf(all, minEpisodes))
		if !ok {
			r, _ = tracingOverhead(all)
		}
		o.values["tracing_overhead"] = r
	}
	return all, nil
}

// calmOf returns the undisturbed episodes, or all of them when fewer than
// minEpisodes ran undisturbed.
func calmOf[R any](eps []episode[R], minEpisodes int) []episode[R] {
	var calm []episode[R]
	for _, ep := range eps {
		if !ep.disturbed {
			calm = append(calm, ep)
		}
	}
	if len(calm) < minEpisodes {
		return eps
	}
	return calm
}

// tracingOverhead is the median traced over the median untraced episode
// wall time, when both kinds ran.
func tracingOverhead[R any](eps []episode[R]) (float64, bool) {
	var on, off []float64
	for _, ep := range eps {
		if ep.traced {
			on = append(on, ep.secs)
		} else {
			off = append(off, ep.secs)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0, false
	}
	return median(on) / median(off), true
}

// cpuTicks are the machine-wide CPU time counters of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the machine-wide CPU time counters.
func readCPUTicks() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPUTicks(line)
}

// parseCPUTicks parses the aggregate "cpu" line of /proc/stat, whose
// eighth counter is the time a hypervisor ran something else on this
// machine's CPUs. The ninth and tenth (guest time) are already counted in
// the first, so they are left out of the total.
func parseCPUTicks(line string) (cpuTicks, error) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("perfbench: unexpected /proc/stat line %q", line)
	}
	var c cpuTicks
	for i, f := range fields[1:min(len(fields), 9)] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("perfbench: /proc/stat: %w", err)
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, nil
}

// stealFrac is the share of CPU time stolen since before.
func (c cpuTicks) stealFrac(before cpuTicks) float64 {
	if c.total <= before.total {
		return 0
	}
	return float64(c.steal-before.steal) / float64(c.total-before.total)
}

// peakRSSMB is the process's high-water resident set in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("perfbench: no VmHWM in /proc/self/status")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the metrics of one kind from the outcome. A metric its
// workload should measure but did not is a benchmark bug.
func report(l *ledger, workload, kind string, o *outcome) (map[string]metricValue, error) {
	out := make(map[string]metricValue)
	for _, m := range l.Metrics {
		if m.Kind != kind {
			continue
		}
		v, ok := o.values[m.Name]
		if !ok && slices.Contains(m.Workloads, workload) {
			return nil, fmt.Errorf("perfbench: workload %s did not measure %s", workload, m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: serve-churn, hyperscale-steady or sweep-matrix")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 20, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and tracing overhead")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and scratch state")
	cpuprofile := flag.Bool("cpuprofile", false, "write a CPU profile of the run under -out")
	flag.Parse()

	l, err := loadLedger()
	if err != nil {
		return err
	}
	runW, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("perfbench: unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("perfbench: --seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		work:   work,
	}
	if e.traced {
		e.spans = newSpanLog()
	}
	if *cpuprofile {
		f, err := os.Create(filepath.Join(*out, fmt.Sprintf("%s-%d.cpu.prof", *workload, *seed)))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	o := newOutcome()
	if err := runW(e, o); err != nil {
		return err
	}
	if o.values["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return err
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	kind := "end_to_end"
	if e.traced {
		kind = "per_layer"
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-%d.json", *workload, *seed))
		if err := e.spans.writeChrome(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", e.spans.len(), path)
	}
	metrics, err := report(l, *workload, kind, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// startClock starts the measuring budget; set-up runs before it.
func (e *env) startClock() error {
	var err error
	e.cpu0, err = readCPUTicks()
	e.deadline = time.Now().Add(e.budget)
	return err
}

// trainBundle trains the SLA predictor bundle of a seed from scratch —
// the same harvest and training sweep.TrainedBundle runs, without its
// per-process cache, so every set-up rep pays for training.
func trainBundle(seed uint64) (*predict.Bundle, error) {
	h, err := predict.Collect(predict.DefaultHarvestOpts(seed))
	if err != nil {
		return nil, err
	}
	return predict.Train(h, predict.DefaultTrainConfig(seed))
}
