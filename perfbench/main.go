// Command perfbench is the repository benchmark. It runs one named workload
// through the public API of the simulator's layers, checks the workload's
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, computed from spans the
// benchmark records around its own calls into each layer. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload uniform-2048 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned outputs were recorded for.
const defaultSeed = 1

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd names every end-to-end metric and its unit. Each workload reports
// all of them; what an "op" is depends on the workload (README.md).
var endToEnd = map[string]string{
	"setup_s":            "s",
	"ops_per_s":          "1/s",
	"op_latency_p50_ms":  "ms",
	"op_latency_p90_ms":  "ms",
	"allocs_per_op":      "count",
	"alloc_bytes_per_op": "B",
	"heap_live_mb":       "MB",
}

// perLayer names every per-layer metric and its unit. Times and counts are
// per op of the traced passes (per simulated cycle, packet or broadcast on
// uniform-2048, per cell on fault-campaign, per job on serve-mixed), so
// they do not grow with how many traced passes fit in a run. A workload
// that bypasses a layer (or cannot observe it from outside) reports 0.
var perLayer = map[string]string{
	"engine.step_self_us_per_cycle":     "us",
	"engine.ns_per_move":                "ns",
	"engine.visits_per_cycle":           "count",
	"engine.active_ratio":               "ratio",
	"engine.route_state_reuse_ratio":    "ratio",
	"core.send_us_per_cycle":            "us",
	"core.send_ns_per_packet":           "ns",
	"core.sends_per_cycle":              "count",
	"core.broadcast_us_per_broadcast":   "us",
	"routing.reachable_us_per_cycle":    "us",
	"routing.reachable_ns_per_packet":   "ns",
	"inject.pre_cycle_ms_per_cell":      "ms",
	"inject.retransmits_per_cell":       "count",
	"inject.killed_in_flight_per_cell":  "count",
	"reconfig.attempt_ms_per_cell":      "ms",
	"reconfig.attempt_ms_p50":           "ms",
	"reconfig.attempts_per_cell":        "count",
	"reconfig.hot_swaps_per_cell":       "count",
	"reconfig.drains_per_cell":          "count",
	"reconfig.fallbacks_per_cell":       "count",
	"reconfig.refusals_per_cell":        "count",
	"recovery.post_cycle_ms_per_cell":   "ms",
	"recovery.stalls_detected_per_cell": "count",
	"recovery.recoveries_per_cell":      "count",
	"campaign.cell_setup_ms_per_cell":   "ms",
	"campaign.step_self_ms_per_cell":    "ms",
	"campaign.cell_result_ms_per_cell":  "ms",
	"campaign.cell_p50_ms":              "ms",
	"checkpoint.encode_ms_per_cell":     "ms",
	"checkpoint.write_ms_per_cell":      "ms",
	"checkpoint.bytes_per_snapshot":     "B",
	"jobs.submit_ms_p50":                "ms",
	"jobs.submit_ms_p90":                "ms",
	"jobs.queue_wait_ms_p50":            "ms",
	"jobs.queue_wait_ms_p90":            "ms",
	"jobs.run_ms_p50":                   "ms",
	"jobs.run_ms_p90":                   "ms",
	"jobs.artifact_ms_p50":              "ms",
	"jobs.dedupe_ratio":                 "ratio",
	"jobs.shed_ratio":                   "ratio",
	"tracing.overhead_ratio":            "ratio",
	"tracing.spans_per_op":              "count",
}

// options is what every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string // scratch space for state dirs and span dumps
}

// outcome is a workload's report. A non-nil err is a failed correctness
// check: the run reports no numbers.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	spans             spanSet
	err               error
}

type workload struct {
	name string
	run  func(options, *report) outcome
}

var workloads = []workload{
	{"uniform-2048", runUniform},
	{"fault-campaign", runFaultCampaign},
	{"serve-mixed", runServeMixed},
}

// report prints the human-readable lines that precede the JSON result.
type report struct{ name string }

// line prints one labelled value.
func (r *report) line(format string, args ...any) {
	fmt.Printf("%s: %s\n", r.name, fmt.Sprintf(format, args...))
}

// metric prints one named metric with its unit and sample count.
func (r *report) metric(name string, v float64, unit, samples string) {
	r.line("%-28s %14.6g %-9s %s", name, v, unit, samples)
}

// timing prints a timing's median and the highest percentile its sample
// supports.
func (r *report) timing(name string, ms []float64) {
	p, ok := supportedPercentile(len(ms))
	tail := "no percentile has 10 samples beyond it"
	if ok {
		tail = fmt.Sprintf("p%g %.4g ms", p, percentile(ms, p))
	}
	r.line("%-28s median %.4g ms, %s (n=%d)", name, median(ms), tail, len(ms))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for state dirs and span dumps")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	rep := &report{name: w.name}
	rep.line("seed %d, %gs, trace %d, GOMAXPROCS %d, nproc %d, %s", opt.seed, opt.seconds, *trace,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	out := w.run(opt, rep)
	if out.err == nil && out.failed > 0 {
		out.err = fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	if out.err == nil && out.attempted < 1 {
		out.err = errors.New("no operation was attempted")
	}
	if out.err == nil && opt.trace {
		path := filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opt.seed))
		if err := writeSpans(path, out.spans); err != nil {
			out.err = err
		} else {
			rep.line("%d spans written to %s", len(out.spans), path)
		}
	}
	res := Result{Correct: out.err == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]Metric{}}
	rep.line("error_rate %g ratio (%d failed of %d attempted)", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	if out.err == nil {
		res.Metrics, out.err = collect(opt.trace, out)
	}
	if out.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", w.name, out.err)
		res = Result{Correct: false, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]Metric{}}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// collect picks the metric set the mode reports. Every end-to-end metric
// must be present; per-layer metrics a workload never touched read 0.
func collect(traced bool, out outcome) (map[string]Metric, error) {
	m := map[string]Metric{}
	if !traced {
		for name, unit := range endToEnd {
			v, ok := out.e2e[name]
			if !ok || v <= 0 {
				return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", name, v)
			}
			m[name] = Metric{Value: v, Unit: unit}
		}
		return m, nil
	}
	for name := range out.layers {
		if _, ok := perLayer[name]; !ok {
			return nil, fmt.Errorf("unknown per-layer metric %s", name)
		}
	}
	for name, unit := range perLayer {
		m[name] = Metric{Value: out.layers[name], Unit: unit}
	}
	return m, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// roomForPass reports whether another pass, as long as the median pass so
// far, would end within the run's seconds plus a tenth, counted from
// origin.
func roomForPass(origin time.Time, seconds float64, passSeconds []float64) bool {
	limit := origin.Add(time.Duration(1.1 * seconds * float64(time.Second)))
	return time.Now().Add(time.Duration(median(passSeconds) * float64(time.Second))).Before(limit)
}

// A run repeats its workload's set-up for setupBudget, and at least
// setupMinReps times, before the timed phase; setup_s is the median of the
// repeats. One set-up takes well under a millisecond on two of the
// workloads, so a handful of repeats would leave the median at the mercy
// of a few slow file-system calls.
const (
	setupBudget  = 500 * time.Millisecond
	setupMinReps = 5
)

// measureSetup repeats once for setupBudget and reports the median of the
// durations it returns, in seconds, and the number of repeats. once builds
// what the workload needs before its timed phase, returns how long the
// part that counts as set-up took, and releases what it built. Like a
// timed phase, it starts on a settled host, and every repeat starts on a
// collected heap, so no repeat pays for collecting an earlier one's
// garbage.
func measureSetup(once func() (time.Duration, error)) (float64, int, error) {
	settle()
	var times []float64
	t0 := time.Now()
	for len(times) < setupMinReps || time.Since(t0) < setupBudget {
		runtime.GC()
		d, err := once()
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return median(times), len(times), nil
}

// timer measures the wall time and heap allocations of a timed phase.
type timer struct {
	start time.Time
	ms    runtime.MemStats
}

// phase is what a timer measured.
type phase struct {
	wall          time.Duration
	mallocs, heap uint64 // allocations and allocated bytes
}

// settle flushes the dirty file data that earlier phases and runs left
// behind, so its writeback does not land inside what is measured next,
// and collects the heap, so no collection of the generated inputs does.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// startTimer begins a timed phase on a settled host. Anything allocated
// before this call (generated inputs, set-up) is excluded from the phase's
// counts.
func startTimer() *timer {
	settle()
	t := &timer{}
	runtime.ReadMemStats(&t.ms)
	t.start = time.Now()
	return t
}

// stop ends the phase.
func (t *timer) stop() phase {
	wall := time.Since(t.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{wall: wall, mallocs: ms.Mallocs - t.ms.Mallocs, heap: ms.TotalAlloc - t.ms.TotalAlloc}
}

// liveHeapMB forces a collection and reports the live heap. Callers keep
// the measured system reachable across the call (runtime.KeepAlive).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
