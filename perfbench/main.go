// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed host-time budget, checks the simulated outputs,
// and prints its metrics; the last line of standard output is one JSON
// object. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload offload-bimodal --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run (spans at the benchmark's own boundaries plus a CPU
// profile) and prints the per-layer metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. Only gated metrics
// go into the JSON result; the others are printed.
type metricDef struct {
	name, unit string
	gated      bool
}

// endToEnd are the metrics of an untraced run (--trace 0). The two tails
// and point_ms_p50 are printed but not gated: on the shared 2-vCPU
// machine the benchmark was written on, their spread over ten seeded
// runs reached 0.2 to 0.5 of the median, against 0.25 for the widest
// bound a gate may use. point_ms_p50 is also the reciprocal of
// points_per_s on the long-point workloads.
var endToEnd = []metricDef{
	{"ns_per_request", "ns", true},
	{"ns_per_request_tail", "ns", false},
	{"points_per_s", "1/s", true},
	{"point_ms_p50", "ms", false},
	{"point_ms_tail", "ms", false},
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},
}

// selfFracLayers are the layers whose CPU self share a traced run
// reports, named after the repository's modules (see layerOf).
var selfFracLayers = []string{
	"sim", "fabric", "nicmodel", "cores", "core", "loadgen", "task", "flowrule",
	"systems", "stats", "queue", "dist", "experiment", "runtime", "attr", "trace", "telemetry",
}

// perLayer are the metrics of a traced run (--trace 1). A metric that a
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_request", "count", true},
		{"sim.pending_highwater", "count", true},
		{"sim.ns_per_event", "ns", true},
		{"fabric.messages_per_request", "count", true},
		{"cores.preemptions_per_request", "count", true},
		{"cores.worker_idle_frac", "frac", true},
		{"core.inject_ns", "ns", true},
		{"flowrule.fast_hit_frac", "frac", true},
		{"flowrule.evictions_per_request", "count", true},
		{"runtime.allocs_per_request", "count", true},
		{"runtime.bytes_per_request", "B", true},
		{"runtime.gc_cycles", "count", true},
		{"runtime.gc_cpu_frac", "frac", true},
		{"runtime.allocs_per_point", "count", true},
		{"experiment.point_setup_ms", "ms", true},
		{"experiment.done_ns", "ns", true},
		{"scenario.build_ms", "ms", true},
		{"runner.busy_frac", "frac", true},
		{"runner.queue_wait_s", "s", true},
		{"runner.cache_hit_frac", "frac", true},
		{"runner.warm_s", "s", true},
		{"observer.overhead_frac", "frac", true},
		{"trace.events_per_request", "count", true},
		{"bench.trace_overhead_frac", "frac", true},
	}
	for _, l := range selfFracLayers {
		defs = append(defs, metricDef{l + ".self_frac", "frac", true})
	}
	return defs
}()

// defaultSeed is the zero-fault goldens' seed. The preset sweep always
// simulates at it, whatever --seed says, so that every pass is
// byte-checked against internal/experiment/testdata/zerofault.
const defaultSeed = 7

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	e2e, layer        map[string]float64
	notes             []string
}

// fail counts n failed operations and says why on standard error.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// note adds a human-readable line printed before the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// workloads lists every workload name; the point workloads are defined
// in point.go and the sweep in sweep.go.
var workloads = []string{"offload-bimodal", "flowrule-1m", "preset-sweep", "offload-observed"}

// watchdog bounds a run's wall time: a run that hangs is a failure, and
// the benchmark must exit well inside the 180 s a run is allowed.
const watchdog = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: offload-bimodal, flowrule-1m, preset-sweep or offload-observed")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (the point workloads' inputs; preset-sweep always uses the goldens' seed 7)")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || *seconds > 120 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds in 1..120 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s did not finish within %v\n", *workload, watchdog)
		os.Exit(3)
	})

	rpt := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	budget := time.Duration(*seconds) * time.Second
	if *workload == "preset-sweep" {
		runSweepWorkload(budget, *traced == 1, rpt)
	} else {
		runPointWorkload(*workload, *seed, budget, *traced == 1, rpt)
	}
	rpt.e2e["peak_rss_mb"] = peakRSSMB()

	defs, vals := endToEnd, rpt.e2e
	if *traced == 1 {
		defs, vals = perLayer, rpt.layer
	}
	printTable(*workload, defs, vals)
	for _, n := range rpt.notes {
		fmt.Println(n)
	}
	errRate := 0.0
	if rpt.attempted > 0 {
		errRate = float64(rpt.failed) / float64(rpt.attempted)
	}
	fmt.Printf("error_rate: %d failed of %d attempted = %g\n", rpt.failed, rpt.attempted, errRate)
	out := resultOut{
		Correct:   rpt.failed == 0 && rpt.attempted > 0,
		Attempted: max(rpt.attempted, 1),
		Failed:    rpt.failed,
		Metrics:   map[string]metricOut{},
	}
	if rpt.attempted == 0 {
		out.Failed = 1
	}
	for _, d := range defs {
		if d.gated {
			out.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// peakRSSMB is the process's resident-set high-water mark. Each run is
// one workload in its own process, so one workload's peak cannot mask
// another's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// outDir is where traced runs leave their spans and profiles, inside the
// build directory the benchmark already owns.
func outDir() (string, error) {
	dir := filepath.Join(".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("output directory: %w", err)
	}
	return dir, nil
}

const profileHz = 500

// startProfile starts the traced phase's CPU profile; the returned func
// stops it and closes the file.
func startProfile(dir, name string) (func(), error) {
	f, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	// 500 Hz instead of the default 100 Hz, for a finer per-layer split
	// from a phase of a few seconds. StartCPUProfile then notes on
	// standard error that the rate was already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// finishTrace writes the spans out, prints their summary, and folds the
// CPU profile's leaf samples by package into <layer>.self_frac.
func finishTrace(dir, name string, log *spanLog, rpt *report) {
	path := filepath.Join(dir, name+".spans.csv")
	if err := log.writeCSV(path); err != nil {
		rpt.fail(1, "write spans: %v", err)
	}
	log.printSummary(os.Stdout, path)
	prof := filepath.Join(dir, name+".cpu.pprof")
	shares, cpuNS, err := leafShares(prof)
	if err != nil {
		rpt.fail(1, "fold profile: %v", err)
		return
	}
	for _, l := range selfFracLayers {
		rpt.layer[l+".self_frac"] = shares[l]
	}
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	fmt.Printf("cpu profile: %.2f s of CPU samples in the traced phase, %s; leaf-frame share by layer:\n", cpuNS/1e9, prof)
	for _, l := range layers {
		fmt.Printf("  %-12s %6.2f%%\n", l, 100*shares[l])
	}
}

// printTable prints every metric of the run; "-" marks a metric the
// workload does not exercise.
func printTable(workload string, defs []metricDef, m map[string]float64) {
	fmt.Printf("metrics, %s:\n", workload)
	for _, d := range defs {
		note := ""
		if !d.gated {
			note = " (printed, not gated)"
		}
		if v := m[d.name]; v != 0 {
			fmt.Printf("  %-32s %14.6g %s%s\n", d.name, v, d.unit, note)
		} else {
			fmt.Printf("  %-32s %14s %s%s\n", d.name, "-", d.unit, note)
		}
	}
}
