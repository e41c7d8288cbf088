package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"mindgap/internal/experiment"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

// goldenDir holds the zero-fault goldens; the sweep runs exactly the
// presets that have one, at the goldens' quality and seed, so every pass
// is byte-checked against them.
const goldenDir = "internal/experiment/testdata/zerofault"

// sweepQuality is the zero-fault goldens' quality. The sweep always
// simulates at their seed: at this quality another seed changes how many
// points run (at seed 11 five figures stop after their first two points,
// 213 instead of 327 points a pass), which would make the sweep's
// throughput a property of the seed rather than of the code.
var sweepQuality = experiment.Quality{Warmup: 500, Measure: 3000, Seed: defaultSeed}

// sweepSetups is how many set-ups are timed before each untraced pass,
// for setup_s.
const sweepSetups = 8

// goldenNames lists the presets that have a zero-fault golden, sorted.
func goldenNames() ([]string, error) {
	ents, err := os.ReadDir(goldenDir)
	if err != nil {
		return nil, fmt.Errorf("zero-fault goldens: %w", err)
	}
	var out []string
	for _, e := range ents {
		if n, ok := strings.CutSuffix(e.Name(), ".golden"); ok {
			out = append(out, n)
		}
	}
	return out, nil
}

// compiled is every preset of the sweep, compiled once per pass.
type compiled struct {
	figs       []experiment.FigureSpec
	tenantID   string
	tenants    experiment.MultiTenantConfig
	hasTenants bool
}

// compilePresets decodes, validates and compiles every preset.
func compilePresets(names []string) (compiled, error) {
	q := sweepQuality
	var c compiled
	for _, name := range names {
		raw, err := scenarios.Raw(name)
		if err != nil {
			return c, err
		}
		p, err := scenario.DecodePreset(raw)
		if err != nil {
			return c, fmt.Errorf("preset %s: %w", name, err)
		}
		if err := p.Validate(); err != nil {
			return c, fmt.Errorf("preset %s: %w", name, err)
		}
		if len(p.Tenants) > 0 {
			if c.hasTenants {
				return c, fmt.Errorf("preset %s: only one tenants preset is supported", name)
			}
			c.tenants, err = experiment.MultiTenantFromPreset(p, q)
			if err != nil {
				return c, err
			}
			c.tenantID, c.hasTenants = p.ID, true
			continue
		}
		for i := range p.Series {
			if err := p.SpecFor(i).Validate(); err != nil {
				return c, fmt.Errorf("preset %s series %d: %w", name, i, err)
			}
		}
		fs, err := experiment.PresetFigureSpec(p, q)
		if err != nil {
			return c, err
		}
		c.figs = append(c.figs, fs)
	}
	return c, nil
}

// passRec records the wrapped runner.Point.Run calls of one pass. Points
// run on the runner's worker goroutines, so every field is under mu.
type passRec struct {
	mu       sync.Mutex
	start    time.Time
	first    int64 // ns since start at the first Point.Run, -1 until then
	points   []pointRec
	panics   []string
	log      *spanLog
	passSpan int32
	setup    int32
}

type pointRec struct {
	start, dur int64
	completed  int64
}

func newPassRec(log *spanLog, parent int32) *passRec {
	r := &passRec{start: time.Now(), first: -1, log: log, passSpan: -1, setup: -1}
	if log != nil {
		r.passSpan = log.open(spanRep, parent)
		r.setup = log.open(spanSetup, r.passSpan)
	}
	return r
}

func (r *passRec) since() int64 { return int64(time.Since(r.start)) }

// wrapRun times one point's Run and turns a panic into a recorded
// failure (the point then yields its zero value).
func wrapRun[T any](r *passRec, idx int, run func() T, completed func(T) int64) func() T {
	return func() (v T) {
		r.mu.Lock()
		t0 := r.since()
		var l0 int64
		if r.log != nil {
			l0 = r.log.now()
		}
		if r.first < 0 {
			r.first = t0
			if r.log != nil {
				r.log.closeAt(r.setup, l0)
			}
		}
		r.mu.Unlock()
		defer func() {
			p := recover()
			t1 := r.since()
			r.mu.Lock()
			defer r.mu.Unlock()
			if p != nil {
				r.panics = append(r.panics, fmt.Sprintf("point %d: panic: %v", idx, p))
			}
			r.points = append(r.points, pointRec{start: t0, dur: t1 - t0, completed: completed(v)})
			if r.log != nil {
				r.log.add(spanPoint, r.passSpan, uint64(idx), l0, r.log.now())
			}
		}()
		return run()
	}
}

func resultCompleted(r experiment.Result) int64 { return r.Completed }

func tenantsCompleted(rs []experiment.TenantResult) int64 {
	var n int64
	for _, t := range rs {
		n += t.Completed
	}
	return n
}

// wrapFigure returns a copy of fp whose points run through wrapRun;
// next is the pass-wide index of its first point.
func wrapFigure(fp experiment.FigureSpec, r *passRec, next *int) experiment.FigureSpec {
	series := make([]runner.Series[experiment.Result], len(fp.Sweep.Series))
	for si, s := range fp.Sweep.Series {
		pts := make([]runner.Point[experiment.Result], len(s.Points))
		for i, pt := range s.Points {
			pts[i] = runner.Point[experiment.Result]{Key: pt.Key, Run: wrapRun(r, *next, pt.Run, resultCompleted)}
			*next++
		}
		s.Points = pts
		series[si] = s
	}
	fp.Sweep.Series = series
	return fp
}

// outputs are one pass's results and their rendered text per preset.
type outputs struct {
	text   map[string][]byte
	points map[string]int // result points per preset
}

// run executes every preset on rn the way the program does, one
// FigureSpec.Run per figure preset in name order, then the tenants
// preset's two points as one uncached sweep (as in
// experiment.MultiTenantComparisonWith), and renders every preset the
// way the zero-fault golden test does.
func (c compiled) run(rn *runner.Runner, r *passRec) (outputs, error) {
	o := outputs{text: map[string][]byte{}, points: map[string]int{}}
	ctx := context.Background()
	next := 0
	for _, fp := range c.figs {
		f, err := wrapFigure(fp, r, &next).Run(ctx, rn)
		if err != nil {
			return o, err
		}
		for _, s := range f.Series {
			o.points[f.ID] += len(s.Results)
		}
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			return o, err
		}
		o.text[f.ID] = buf.Bytes()
	}
	if !c.hasTenants {
		return o, nil
	}
	var pts []runner.Point[[]experiment.TenantResult]
	for _, prio := range []bool{false, true} {
		cfg := c.tenants
		cfg.Priority = prio
		pts = append(pts, runner.Point[[]experiment.TenantResult]{
			Run: wrapRun(r, next, func() []experiment.TenantResult { return experiment.RunMultiTenant(cfg) }, tenantsCompleted),
		})
		next++
	}
	tw := runner.Sweep[[]experiment.TenantResult]{Name: c.tenantID, Series: []runner.Series[[]experiment.TenantResult]{{Points: pts}}}
	tres, err := runner.Run(ctx, rn, tw)
	if err != nil {
		return o, err
	}
	var buf bytes.Buffer
	for _, sr := range tres {
		for v, rs := range sr.Results {
			name := []string{"fifo", "priority"}[v]
			for _, tr := range rs {
				fmt.Fprintf(&buf, "%s,%s,%s,%v,%v,%v,%d\n",
					c.tenantID, name, tr.Tenant.Name, tr.P50, tr.P99, tr.Mean, tr.Completed)
			}
			o.points[c.tenantID]++
		}
	}
	o.text[c.tenantID] = buf.Bytes()
	return o, nil
}

// setUp is what a pass does before it hands points to the runner: load,
// decode, validate and compile every preset, and open a fresh cache.
// compileNS is the compile step's share.
func setUp(names []string, cacheDir string) (c compiled, cache *runner.Cache, compileNS int64, err error) {
	t := time.Now()
	if c, err = compilePresets(names); err != nil {
		return c, nil, 0, err
	}
	compileNS = int64(time.Since(t))
	if err = os.RemoveAll(cacheDir); err != nil {
		return c, nil, 0, err
	}
	cache, err = runner.OpenCache(cacheDir)
	return c, cache, compileNS, err
}

// sweepPass is one measured pass: set-up, a cold pass on a fresh cache,
// and a warm pass that reads the cache back.
type sweepPass struct {
	err                      error
	coldNS, warmNS           int64
	cold                     []pointRec
	warmRuns                 int
	hits                     int64
	coldOut, warmOut         outputs
	panics                   []string
	mallocs, bytes, gcs      uint64
	coldCompleted, coldFirst int64
}

func runPass(names []string, par int, cacheDir string, log *spanLog, parent int32) (p sweepPass) {
	runtime.GC() // start every pass from the same heap, outside the timing
	rec := newPassRec(log, parent)
	defer func() {
		if log != nil {
			if rec.first < 0 {
				log.close(rec.setup)
			}
			log.close(rec.passSpan)
		}
	}()
	c, cache, _, err := setUp(names, cacheDir)
	if err != nil {
		p.err = err
		return p
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := rec.since()
	p.coldOut, p.err = c.run(&runner.Runner{Parallelism: par, Cache: cache}, rec)
	p.coldNS = rec.since() - t0
	runtime.ReadMemStats(&ms1)
	p.mallocs, p.bytes, p.gcs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, uint64(ms1.NumGC-ms0.NumGC)
	p.coldFirst = t0
	p.cold, p.panics = rec.points, rec.panics
	for _, pt := range p.cold {
		p.coldCompleted += pt.completed
	}
	if p.err != nil {
		return p
	}

	warm, err := runner.OpenCache(cacheDir)
	if err != nil {
		p.err = err
		return p
	}
	wrec := newPassRec(nil, -1)
	p.warmOut, p.err = c.run(&runner.Runner{Parallelism: par, Cache: warm}, wrec)
	p.warmNS = wrec.since()
	p.warmRuns = len(wrec.points)
	p.panics = append(p.panics, wrec.panics...)
	p.hits, _ = warm.Stats()
	return p
}

// sweepRun accumulates passes and checks their outputs.
type sweepRun struct {
	names  []string
	golden map[string][]byte
	passes []sweepPass
	rpt    *report
	par    int
	dir    string
}

// check verifies one pass: every preset's output, cold and warm, must be
// byte-equal to its zero-fault golden. An operation is one point; every
// point of a preset whose output differs is a failed operation.
func (s *sweepRun) check(p sweepPass) {
	for _, msg := range p.panics {
		s.rpt.fail(1, "preset-sweep pass %d: %s", len(s.passes), msg)
	}
	if p.err != nil {
		s.rpt.attempted++
		s.rpt.fail(1, "preset-sweep pass %d: %v", len(s.passes), p.err)
		return
	}
	for _, out := range []struct {
		name string
		o    outputs
	}{{"cold", p.coldOut}, {"warm", p.warmOut}} {
		for _, name := range s.names {
			n := int64(max(out.o.points[name], 1))
			s.rpt.attempted += n
			if !bytes.Equal(out.o.text[name], s.golden[name]) {
				s.rpt.fail(n, "preset-sweep pass %d %s: preset %s output differs from its zero-fault golden",
					len(s.passes), out.name, name)
			}
		}
	}
}

// runSweepWorkload runs the preset sweep for the budget. Untraced, it
// repeats passes and reports the end-to-end metrics. Traced, it spends
// half the budget untraced (the base for the overhead) and the other
// half traced under a CPU profile. Each untraced pass is preceded by
// sweepSetups timed set-ups, so that the samples span the run.
func runSweepWorkload(budget time.Duration, traced bool, rpt *report) {
	start := time.Now()
	s := &sweepRun{rpt: rpt, par: runtime.NumCPU(), golden: map[string][]byte{}}
	names, err := goldenNames()
	if err == nil {
		s.dir, err = outDir()
	}
	if err != nil {
		rpt.attempted++
		rpt.fail(1, "%v", err)
		return
	}
	s.names = names
	for _, n := range names {
		if s.golden[n], err = os.ReadFile(filepath.Join(goldenDir, n+".golden")); err != nil {
			rpt.attempted++
			rpt.fail(1, "%v", err)
			return
		}
	}
	cacheDir := filepath.Join(s.dir, fmt.Sprintf("cache-%d", os.Getpid()))
	defer os.RemoveAll(cacheDir)

	var setups, compiles []float64
	pass := func(log *spanLog, parent int32) sweepPass {
		for i := 0; log == nil && i < sweepSetups; i++ {
			debug.FreeOSMemory() // as for the point workloads' set-ups
			t := time.Now()
			_, _, compileNS, err := setUp(names, cacheDir)
			if err != nil {
				rpt.attempted++
				rpt.fail(1, "preset-sweep set-up: %v", err)
				continue
			}
			setups = append(setups, time.Since(t).Seconds())
			compiles = append(compiles, float64(compileNS)/1e6)
		}
		p := runPass(names, s.par, cacheDir, log, parent)
		s.check(p)
		s.passes = append(s.passes, p)
		return p
	}
	repeat := func(deadline time.Time, atLeast int, log *spanLog, parent int32) []sweepPass {
		var out []sweepPass
		var last time.Duration
		for i := 0; i < atLeast || time.Now().Add(last).Before(deadline); i++ {
			t := time.Now()
			if p := pass(log, parent); p.err == nil {
				out = append(out, p)
			}
			last = time.Since(t)
		}
		return out
	}

	if !traced {
		ps := repeat(start.Add(budget), 2, nil, -1)
		sweepE2E(ps, s.par, rpt)
		rpt.e2e["setup_s"] = median(setups)
		rpt.note("setup_s: median of %d set-ups (load, decode, validate and compile every preset, open a fresh cache), %d before each pass, range %.4g–%.4g s",
			len(setups), sweepSetups, slices.Min(setups), slices.Max(setups))
		return
	}
	ps := repeat(start.Add(budget/2), 1, nil, -1)
	base := median(pointNSPerRequest(ps))
	log := newSpanLog()
	root := log.open(spanWorkload, -1)
	stop, err := startProfile(s.dir, "preset-sweep")
	if err != nil {
		rpt.fail(1, "%v", err)
		return
	}
	tps := repeat(start.Add(budget), 1, log, root)
	stop()
	log.close(root)
	tracedNS := median(pointNSPerRequest(tps))

	m := rpt.layer
	m["runner.busy_frac"] = median(passField(ps, func(p sweepPass) float64 {
		var busy int64
		for _, pt := range p.cold {
			busy += pt.dur
		}
		return float64(busy) / (float64(p.coldNS) * float64(s.par))
	}))
	m["runner.queue_wait_s"] = median(passField(ps, func(p sweepPass) float64 {
		var wait int64
		for _, pt := range p.cold {
			wait += pt.start - p.coldFirst
		}
		return float64(wait) / float64(max(len(p.cold), 1)) / 1e9
	}))
	m["runner.cache_hit_frac"] = median(passField(ps, func(p sweepPass) float64 {
		return float64(p.hits) / float64(p.hits+int64(p.warmRuns))
	}))
	m["runner.warm_s"] = median(passField(ps, func(p sweepPass) float64 { return float64(p.warmNS) / 1e9 }))
	m["scenario.build_ms"] = median(compiles)
	m["runtime.allocs_per_point"] = median(passField(ps, func(p sweepPass) float64 { return float64(p.mallocs) / float64(len(p.cold)) }))
	m["runtime.allocs_per_request"] = median(passField(ps, func(p sweepPass) float64 { return float64(p.mallocs) / float64(p.coldCompleted) }))
	m["runtime.bytes_per_request"] = median(passField(ps, func(p sweepPass) float64 { return float64(p.bytes) / float64(p.coldCompleted) }))
	m["runtime.gc_cycles"] = median(passField(ps, func(p sweepPass) float64 { return float64(p.gcs) }))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.gc_cpu_frac"] = ms.GCCPUFraction
	m["bench.trace_overhead_frac"] = tracedNS/base - 1
	rpt.note("preset-sweep: untraced %.1f ns/request (median over %d points, %d passes); traced %.1f over %d passes; tracing overhead %+.1f%%",
		base, len(pointNSPerRequest(ps)), len(ps), tracedNS, len(tps), 100*(tracedNS/base-1))
	finishTrace(s.dir, "preset-sweep", log, rpt)
}

func passField(ps []sweepPass, f func(sweepPass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// pointNSPerRequest is host ns per measured completion of every cold
// point that completed any.
func pointNSPerRequest(ps []sweepPass) []float64 {
	var out []float64
	for _, p := range ps {
		for _, pt := range p.cold {
			if pt.completed > 0 {
				out = append(out, float64(pt.dur)/float64(pt.completed))
			}
		}
	}
	return out
}

func sweepE2E(ps []sweepPass, par int, rpt *report) {
	m := rpt.e2e
	ns := pointNSPerRequest(ps)
	m["ns_per_request"] = median(ns)
	var label string
	m["ns_per_request_tail"], label = tail(ns)
	rpt.note("ns_per_request: median over %d cold points of %d passes; tail at %s", len(ns), len(ps), label)
	m["points_per_s"] = median(passField(ps, func(p sweepPass) float64 { return float64(len(p.cold)) / (float64(p.coldNS) / 1e9) }))
	var walls []float64
	for _, p := range ps {
		for _, pt := range p.cold {
			walls = append(walls, float64(pt.dur)/1e6)
		}
	}
	m["point_ms_p50"] = median(walls)
	m["point_ms_tail"], label = tail(walls)
	rpt.note("points_per_s: median of %d cold passes at parallelism %d; point_ms: %d points; tail at %s",
		len(ps), par, len(walls), label)
}
