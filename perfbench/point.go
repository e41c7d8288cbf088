package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/dist"
	"mindgap/internal/experiment"
	"mindgap/internal/scenario"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
	"mindgap/scenarios"
)

// pointWorkload is one long simulated point, repeated until the time
// budget is spent. Every repetition of a run uses the same seed, so
// every repetition must reproduce the same exact counters. The point is
// one series of a checked-in preset at one load, so it follows the
// preset if the preset changes.
type pointWorkload struct {
	preset          string
	series          int
	flows           int // concurrent flows, for a flow-sweep preset
	rps             float64
	warmup, measure int
	window          int  // completions per measurement window
	setups          int  // set-ups timed before each untraced repetition, for setup_s
	observed        bool // attach a trace buffer, attribution collector and registry
}

// The Figure 2 offload series at 400k RPS, and figure-flowrule's
// "adaptive threshold" series at its million-flow end. Warm-up and
// measure are the benchmark's own: each repetition is one long point.
var (
	offloadBimodal = pointWorkload{preset: "figure2", series: 0, rps: 400_000,
		warmup: 20_000, measure: 600_000, window: 20_000, setups: 50}
	flowrule1M = pointWorkload{preset: "figure-flowrule", series: 3, flows: 1 << 20, rps: 400_000,
		warmup: 20_000, measure: 1_000_000, window: 40_000, setups: 1}
)

var pointWorkloads = map[string]pointWorkload{
	"offload-bimodal":  offloadBimodal,
	"flowrule-1m":      flowrule1M,
	"offload-observed": func() pointWorkload { w := offloadBimodal; w.observed = true; return w }(),
}

// spec resolves the workload's scenario from its preset.
func (w pointWorkload) spec() (scenario.Spec, error) {
	raw, err := scenarios.Raw(w.preset)
	if err != nil {
		return scenario.Spec{}, err
	}
	p, err := scenario.DecodePreset(raw)
	if err != nil {
		return scenario.Spec{}, err
	}
	sp := p.SpecFor(w.series)
	if w.flows > 0 {
		sp = sp.WithFlows(w.flows)
	}
	sp.Load = &scenario.LoadSpec{RPS: w.rps}
	return sp, sp.Validate()
}

// traceEventCap sizes the observed workload's trace buffer: a bounded
// debugging window, past which events are counted but not stored.
const traceEventCap = 1 << 16

// Observation levels of one repetition.
const (
	obsPlain    = iota // no observers: the simulator's production path
	obsCounted         // telemetry registry only, to read exact layer counts
	obsObserved        // trace buffer + attribution collector + registry
)

var obsNames = [...]string{"plain", "counted", "observed"}

// exactCounts must repeat bit for bit across repetitions of one point.
// Observation must not change the simulated results, so it holds across
// observation levels too.
type exactCounts struct {
	p50, p99, mean, max             time.Duration
	completed, dropped, preemptions int64
	idleBits                        uint64
	events                          uint64
	highWater                       int
	completions                     int
}

// layerCounts are exact counts read from the telemetry registry or the
// trace buffer; they repeat bit for bit at one observation level.
type layerCounts struct {
	fabricMessages             float64
	fast, slow, drop, evicted  float64
	traceEvents, attrCompleted uint64
}

// rep is one measured repetition.
type rep struct {
	obs     int
	err     error
	res     experiment.Result
	exact   exactCounts
	layers  layerCounts
	windows []float64 // host ns per completed request, per full window
	want    int       // windows a complete point yields

	repNS, setupNS, pointSetupNS, buildNS, pointNS int64

	mallocs, bytes uint64
	gcs            uint32
}

// runRep builds and runs one repetition: decode, validate, build,
// RunPoint. Set-up runs from the start of decoding to the first Inject.
// A set-up sample is a repetition with w.warmup and w.measure cut to one
// completion each.
func runRep(w pointWorkload, seed uint64, obs int, log *spanLog) (r rep) {
	r.obs = obs
	r.want = w.measure / w.window
	runtime.GC() // start every repetition from the same heap, outside the timing
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	repSpan := int32(-1)
	if log != nil {
		repSpan = log.open(spanRep, 0)
	}
	start := time.Now()
	p := newProbe(start, w.warmup, w.window, log, repSpan)
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("panic: %v", v)
		}
		if log != nil {
			if p.run >= 0 {
				log.close(p.run)
			} else {
				log.close(p.setup)
			}
			log.close(repSpan)
		}
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
		r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
		r.gcs = ms1.NumGC - ms0.NumGC
	}()

	sp, err := w.spec()
	if err != nil {
		r.err = err
		return r
	}
	svc, err := dist.Parse(sp.Workload)
	if err != nil {
		r.err = err
		return r
	}
	var o scenario.Options
	var tr *trace.Buffer
	var col *attr.Collector
	switch obs {
	case obsCounted:
		o.Metrics = telemetry.NewRegistry()
	case obsObserved:
		tr = trace.New(traceEventCap)
		col = attr.New(attr.Config{})
		o = scenario.Options{Tracer: tr, Metrics: telemetry.NewRegistry(), Attr: col}
	}
	f, err := scenario.BuildWith(sp, o)
	if err != nil {
		r.err = err
		return r
	}
	buildNS := int64(time.Since(start))
	cfg := experiment.PointConfig{
		Service:    svc,
		Flow:       sp.Flow,
		OfferedRPS: sp.Load.RPS,
		Warmup:     w.warmup,
		Measure:    w.measure,
		Seed:       seed,
	}
	cfg.Factory = p.wrap(f)
	r.res = experiment.RunPoint(cfg)
	r.repNS = p.since()
	r.pointNS = r.repNS - p.runStart
	r.setupNS = p.setupNS
	r.pointSetupNS = p.setupNS - p.runStart
	r.buildNS = buildNS + p.buildNS
	r.windows = p.windows()
	r.exact = exactCounts{
		p50: r.res.P50, p99: r.res.P99, mean: r.res.Mean, max: r.res.Max,
		completed: r.res.Completed, dropped: r.res.Dropped, preemptions: r.res.Preemptions,
		idleBits:    math.Float64bits(r.res.WorkerIdleFraction),
		events:      p.eng.Executed(),
		highWater:   p.eng.HighWater(),
		completions: p.done,
	}
	if o.Metrics != nil {
		r.layers = readLayerCounts(o.Metrics)
	}
	if tr != nil {
		r.layers.traceEvents = uint64(tr.Len()) + tr.Truncated()
		r.layers.attrCompleted = col.Completed()
	}
	return r
}

// readLayerCounts sums the registry's fabric deliveries and reads the
// flow-rule steering and eviction counters.
func readLayerCounts(reg *telemetry.Registry) layerCounts {
	var c layerCounts
	for _, k := range reg.GaugeKeys() {
		if strings.HasPrefix(k, "fabric/") && strings.HasSuffix(k, "/delivered") {
			v, _ := reg.GaugeValue(k)
			c.fabricMessages += v
		}
	}
	g := func(k string) float64 { v, _ := reg.GaugeValue(k); return v }
	c.fast = g("flowrule/fast_packets")
	c.slow = g("flowrule/slow_packets")
	c.drop = g("flowrule/drop_packets")
	c.evicted = g("flowrule/rule_evictions_lru") + g("flowrule/rule_evictions_idle")
	return c
}

// pointRun accumulates the repetitions of one run and checks each.
type pointRun struct {
	name  string
	w     pointWorkload
	seed  uint64
	own   int                 // the workload's observation level
	first *rep                // first good repetition: every other must match its results
	rep0  [len(obsNames)]*rep // first good repetition at each observation level
	reps  []rep
	rpt   *report

	// Set-up samples: seconds from start to the first Inject, RunPoint's
	// share of it in ms, and the scenario build's share in ms.
	setups, pointSetups, builds []float64
}

// add checks one repetition and keeps it. An operation is one window:
// a panic, a truncated point, a missing window or a failed check fails
// every window of the repetition.
func (pr *pointRun) add(r rep) {
	pr.rpt.attempted += int64(r.want)
	bad := true
	fail := func(format string, args ...any) {
		pr.rpt.fail(int64(r.want), "%s rep %d (%s): "+format,
			append([]any{pr.name, len(pr.reps), obsNames[r.obs]}, args...)...)
	}
	switch {
	case r.err != nil:
		fail("%v", r.err)
	case r.res.Truncated:
		fail("point truncated by the simulated-time watchdog")
	case len(r.windows) != r.want:
		fail("%d of %d windows completed", len(r.windows), r.want)
	case r.exact.completed != int64(pr.w.measure):
		fail("completed %d, want %d", r.exact.completed, pr.w.measure)
	case pr.first != nil && pr.first.exact != r.exact:
		fail("EXACT COUNTER MISMATCH: simulated results differ from repetition 0 (%s): %+v vs %+v",
			obsNames[pr.first.obs], r.exact, pr.first.exact)
	case pr.rep0[r.obs] != nil && pr.rep0[r.obs].layers != r.layers:
		fail("EXACT COUNTER MISMATCH: layer counts differ across repetitions: %+v vs %+v", r.layers, pr.rep0[r.obs].layers)
	default:
		bad = false
	}
	pr.reps = append(pr.reps, r)
	if bad {
		return
	}
	kept := &r
	if pr.first == nil {
		pr.first = kept
	}
	if pr.rep0[r.obs] == nil {
		pr.rep0[r.obs] = kept
	}
}

// repeat runs repetitions until the deadline, at least atLeast of them,
// cycling through the observation levels in obs. Untraced, each
// repetition is preceded by w.setups set-up samples, so that the samples
// span the run as the windows do. A repetition is not started if the
// previous one's length would overrun the deadline.
func (pr *pointRun) repeat(deadline time.Time, atLeast int, log *spanLog, obs ...int) {
	var last time.Duration
	for i := 0; i < atLeast || time.Now().Add(last).Before(deadline); i++ {
		t := time.Now()
		if log == nil {
			pr.setUp()
		}
		pr.add(runRep(pr.w, pr.seed, obs[i%len(obs)], log))
		last = time.Since(t)
	}
}

// setUp times w.setups set-ups at the workload's observation level,
// each a repetition cut to one warm-up and one measured completion. A
// failed set-up fails one operation. Each starts with the heap returned
// to the operating system, as in a fresh process: otherwise whether its
// allocations fault in new pages depends on how far the runtime's
// background scavenger got, which moved per-run medians by up to 1.5×.
func (pr *pointRun) setUp() {
	short := pr.w
	short.warmup, short.measure, short.window = 1, 1, 1
	for range pr.w.setups {
		debug.FreeOSMemory()
		r := runRep(short, pr.seed, pr.own, nil)
		if r.err != nil {
			pr.rpt.attempted++
			pr.rpt.fail(1, "%s set-up: %v", pr.name, r.err)
			continue
		}
		pr.setups = append(pr.setups, float64(r.setupNS)/1e9)
		pr.pointSetups = append(pr.pointSetups, float64(r.pointSetupNS)/1e6)
		pr.builds = append(pr.builds, float64(r.buildNS)/1e6)
	}
}

// level collects the repetitions at one observation level from index
// from on.
func (pr *pointRun) level(obs, from int) []rep {
	var out []rep
	for _, r := range pr.reps[from:] {
		if r.obs == obs && r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func windowsOf(rs []rep) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.windows...)
	}
	return out
}

func fieldOf(rs []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// runPointWorkload runs one point workload for the budget. Untraced,
// it reports the end-to-end metrics. Traced, it spends half the budget
// untraced (the base for the overheads), reads exact layer counts from
// one counted repetition, and spends the other half traced under a CPU
// profile.
func runPointWorkload(name string, seed uint64, budget time.Duration, traced bool, rpt *report) {
	start := time.Now()
	w := pointWorkloads[name]
	own := obsPlain
	if w.observed {
		own = obsObserved
	}
	pr := &pointRun{name: name, w: w, seed: seed, own: own, rpt: rpt}
	if !traced {
		if w.observed {
			// The plain reference: observed repetitions must reproduce it.
			pr.add(runRep(w, seed, obsPlain, nil))
		}
		pr.repeat(start.Add(budget), 2, nil, own)
		pointE2E(pr.level(own, 0), rpt)
		rpt.e2e["setup_s"] = median(pr.setups)
		rpt.note("setup_s: median of %d set-ups (decode, validate, build, RunPoint to the first Inject), %d before each repetition, range %.4g–%.4g s",
			len(pr.setups), w.setups, slices.Min(pr.setups), slices.Max(pr.setups))
		rpt.note("%s: %d repetitions of %d+%d completions, seed %d", name, len(pr.level(own, 0)), w.warmup, w.measure, seed)
		return
	}

	levels := []int{own}
	if w.observed {
		levels = []int{obsPlain, obsObserved}
	}
	pr.repeat(start.Add(budget/2), 2*len(levels), nil, levels...)
	untraced := pr.level(own, 0)
	base := median(windowsOf(untraced))
	if !w.observed {
		pr.add(runRep(w, seed, obsCounted, nil))
	}
	counts := pr.rep0[obsCounted]
	if w.observed {
		counts = pr.rep0[obsObserved]
	}

	dir, err := outDir()
	if err != nil {
		rpt.fail(1, "%v", err)
		return
	}
	log := newSpanLog()
	root := log.open(spanWorkload, -1)
	mark := len(pr.reps)
	stop, err := startProfile(dir, name)
	if err != nil {
		rpt.fail(1, "%v", err)
		return
	}
	pr.repeat(start.Add(budget), 1, log, own)
	stop()
	log.close(root)
	tracedReps := pr.level(own, mark)
	tracedNS := median(windowsOf(tracedReps))

	m := rpt.layer
	if ref := pr.rep0[own]; ref != nil && ref.exact.completions > 0 {
		n := float64(ref.exact.completions)
		m["sim.events_per_request"] = float64(ref.exact.events) / n
		m["sim.pending_highwater"] = float64(ref.exact.highWater)
		m["sim.ns_per_event"] = base / (float64(ref.exact.events) / n)
		m["cores.preemptions_per_request"] = float64(ref.exact.preemptions) / float64(ref.exact.completed)
		m["cores.worker_idle_frac"] = ref.res.WorkerIdleFraction
	}
	if counts != nil && counts.exact.completions > 0 {
		n := float64(counts.exact.completions)
		m["fabric.messages_per_request"] = counts.layers.fabricMessages / n
		if pk := counts.layers.fast + counts.layers.slow + counts.layers.drop; pk > 0 {
			m["flowrule.fast_hit_frac"] = counts.layers.fast / pk
		}
		m["flowrule.evictions_per_request"] = counts.layers.evicted / n
		m["trace.events_per_request"] = float64(counts.layers.traceEvents) / n
	}
	completions := sum(fieldOf(untraced, func(r rep) float64 { return float64(r.exact.completions) }))
	m["runtime.allocs_per_request"] = sum(fieldOf(untraced, func(r rep) float64 { return float64(r.mallocs) })) / completions
	m["runtime.bytes_per_request"] = sum(fieldOf(untraced, func(r rep) float64 { return float64(r.bytes) })) / completions
	m["runtime.allocs_per_point"] = median(fieldOf(untraced, func(r rep) float64 { return float64(r.mallocs) }))
	m["runtime.gc_cycles"] = median(fieldOf(untraced, func(r rep) float64 { return float64(r.gcs) }))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.gc_cpu_frac"] = ms.GCCPUFraction
	m["experiment.point_setup_ms"] = median(pr.pointSetups)
	m["scenario.build_ms"] = median(pr.builds)
	m["core.inject_ns"] = log.meanNS(spanInject)
	m["experiment.done_ns"] = log.meanNS(spanDone)
	m["bench.trace_overhead_frac"] = tracedNS/base - 1
	rpt.note("%s: untraced %.1f ns/request over %d repetitions; traced %.1f ns/request over %d; tracing overhead %+.1f%%",
		name, base, len(untraced), tracedNS, len(tracedReps), 100*(tracedNS/base-1))
	if w.observed {
		plain := median(windowsOf(pr.level(obsPlain, 0)))
		m["observer.overhead_frac"] = base/plain - 1
		rpt.note("observer overhead: observed %.1f ns/request ÷ plain %.1f ns/request − 1 = %+.1f%% (same point, same seed, alternating repetitions)",
			base, plain, 100*(base/plain-1))
	}
	finishTrace(dir, name, log, rpt)
}

// pointE2E fills the end-to-end metrics from untraced repetitions.
func pointE2E(rs []rep, rpt *report) {
	ws := windowsOf(rs)
	m := rpt.e2e
	m["ns_per_request"] = median(ws)
	var label string
	m["ns_per_request_tail"], label = tail(ws)
	rpt.note("ns_per_request: median of %d windows; tail at %s", len(ws), label)
	walls := fieldOf(rs, func(r rep) float64 { return float64(r.pointNS) / 1e6 })
	m["points_per_s"] = float64(len(rs)) / (sum(fieldOf(rs, func(r rep) float64 { return float64(r.repNS) })) / 1e9)
	m["point_ms_p50"] = median(walls)
	m["point_ms_tail"], label = tail(walls)
	rpt.note("point_ms: %d points; tail at %s", len(walls), label)
}
