package loadgen

import (
	"math"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
)

// classify does what a flow-aware system does at classification: take
// the batch's flow ref, decrement InFlight, and drop the reference so a
// retired record can recycle. It returns the flow's class, read before
// the record can be released.
func classify(g *FlowGenerator, r *task.Request) task.FlowClass {
	ref := r.Flow
	r.Flow = 0
	f := g.Table().At(ref)
	class := f.Class
	f.InFlight--
	g.Table().ReleaseIfIdle(ref)
	return class
}

// drainSink classifies every batch of *g and counts its packets by
// class. It reads g at call time, so it can be built before the
// generator it drains.
func drainSink(g **FlowGenerator, counts map[task.FlowClass]uint64) func(*task.Request) {
	return func(r *task.Request) {
		counts[classify(*g, r)] += uint64(r.Packets)
	}
}

func TestFlowGeneratorPopulationExact(t *testing.T) {
	eng := sim.New()
	counts := map[task.FlowClass]uint64{}
	var g *FlowGenerator
	g = NewFlow(eng, FlowConfig{
		RPS:              1_000_000,
		Service:          dist.Fixed{D: 100 * time.Nanosecond},
		Flows:            64,
		ElephantFraction: 0.25,
		Seed:             3,
		MaxArrivals:      50_000,
	}, drainSink(&g, counts))
	g.Start()
	if g.Population() != 64 {
		t.Fatalf("population after Start = %d, want 64", g.Population())
	}
	eng.Run()
	if g.Population() != 64 {
		t.Fatalf("population after run = %d, want 64 (exact, retire-and-replace)", g.Population())
	}
	if g.RetiredFlows() == 0 {
		t.Fatal("no flows retired over 50k batches of finite trains")
	}
	// Retired records whose batches have all been classified must have
	// been recycled: live = the 64 active + nothing else.
	if live := g.Table().Live(); live != 64 {
		t.Fatalf("flow table live = %d, want 64", live)
	}
	if g.Arrivals() != 50_000 {
		t.Fatalf("arrivals = %d, want 50000", g.Arrivals())
	}
}

func TestFlowGeneratorElephantSplitExact(t *testing.T) {
	eng := sim.New()
	counts := map[task.FlowClass]uint64{}
	var g *FlowGenerator
	g = NewFlow(eng, FlowConfig{
		RPS:              1_000_000,
		Service:          dist.Fixed{D: 100 * time.Nanosecond},
		Flows:            1000,
		ElephantFraction: 0.2,
		Seed:             9,
		MaxArrivals:      1,
	}, drainSink(&g, counts))
	g.Start()
	// The split is an error accumulator, not a coin flip: of the first
	// 1000 spawns at fraction 0.2, exactly 200 are elephants.
	var elephants uint64
	for _, ref := range g.active {
		if g.Table().At(ref).Class == task.ClassElephant {
			elephants++
		}
	}
	if elephants != 200 {
		t.Fatalf("elephants = %d of 1000 at fraction 0.2, want exactly 200", elephants)
	}
	if g.Flows() != 1000 {
		t.Fatalf("flows counter = %d, want 1000", g.Flows())
	}
}

func TestFlowGeneratorBatchAndTrainAccounting(t *testing.T) {
	eng := sim.New()
	counts := map[task.FlowClass]uint64{}
	var g *FlowGenerator
	g = NewFlow(eng, FlowConfig{
		RPS:              500_000,
		Service:          dist.Fixed{D: 170 * time.Nanosecond},
		Flows:            8,
		ElephantFraction: 0.5,
		RatBatch:         2, RatTrain: 6,
		ElephantBatch: 8, ElephantTrain: 24,
		Seed:        11,
		MaxArrivals: 20_000,
	}, func(r *task.Request) {
		if r.FlowID == 0 || r.Flow == 0 {
			t.Fatal("batch without a flow id or record")
		}
		// A batch's service time is the per-packet draw times its size.
		if want := 170 * time.Nanosecond * time.Duration(r.Packets); r.Service != want {
			t.Fatalf("batch service = %v for %d packets, want %v", r.Service, r.Packets, want)
		}
		counts[classify(g, r)] += uint64(r.Packets)
	})
	g.Start()
	eng.Run()
	if counts[task.ClassRat] == 0 || counts[task.ClassElephant] == 0 {
		t.Fatalf("packet counts by class = %v, want both classes seen", counts)
	}
	if g.Packets() != counts[task.ClassRat]+counts[task.ClassElephant] {
		t.Fatalf("generator packets = %d, sink saw %d", g.Packets(),
			counts[task.ClassRat]+counts[task.ClassElephant])
	}
}

func TestFlowGeneratorDeterministicStreams(t *testing.T) {
	run := func() []uint64 {
		eng := sim.New()
		var ids []uint64
		var g *FlowGenerator
		g = NewFlow(eng, FlowConfig{
			RPS:              2_000_000,
			Service:          dist.Fixed{D: time.Microsecond},
			Flows:            32,
			ElephantFraction: 0.2,
			Seed:             21,
			MaxArrivals:      5000,
		}, func(r *task.Request) {
			ids = append(ids, uint64(r.FlowID)<<32|uint64(r.Packets))
			classify(g, r)
		})
		g.Start()
		eng.Run()
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at batch %d", i)
		}
	}
}

// TestCounterMetricsShared pins the deduped counter-accessor pattern:
// both generators publish the same probe set through the same embedded
// Counters, and the gauges read the live values.
func TestCounterMetricsShared(t *testing.T) {
	eng := sim.New()
	reg := telemetry.NewRegistry()
	g := New(eng, Config{
		RPS:         1_000_000,
		Service:     dist.Fixed{D: time.Microsecond},
		Seed:        1,
		MaxArrivals: 100,
	}, func(r *task.Request) {})
	g.PublishMetrics(reg, "loadgen")
	var fg *FlowGenerator
	fg = NewFlow(eng, FlowConfig{
		RPS:              1_000_000,
		Service:          dist.Fixed{D: time.Microsecond},
		Flows:            10,
		ElephantFraction: 0.2,
		Seed:             2,
		MaxArrivals:      100,
	}, func(r *task.Request) { classify(fg, r) })
	fg.PublishMetrics(reg, "flowgen")
	g.Start()
	fg.Start()
	eng.Run()
	for key, want := range map[string]float64{
		"loadgen/arrivals": float64(g.Arrivals()),
		"loadgen/packets":  float64(g.Packets()),
		"flowgen/arrivals": float64(fg.Arrivals()),
		"flowgen/packets":  float64(fg.Packets()),
		"flowgen/flows":    float64(fg.Flows()),
	} {
		got, ok := reg.GaugeValue(key)
		if !ok {
			t.Fatalf("gauge %q not published", key)
		}
		if got != want {
			t.Fatalf("gauge %q = %v, want %v", key, got, want)
		}
	}
	if g.Arrivals() != 100 || fg.Arrivals() != 100 {
		t.Fatalf("arrivals = %d/%d, want 100 each", g.Arrivals(), fg.Arrivals())
	}
}

func TestFlowConfigValidation(t *testing.T) {
	eng := sim.New()
	sink := func(*task.Request) {}
	for name, cfg := range map[string]FlowConfig{
		"zero rps":                {Service: dist.Fixed{D: 1}, Flows: 1},
		"no service":              {RPS: 1, Flows: 1},
		"zero flows":              {RPS: 1, Service: dist.Fixed{D: 1}},
		"bad fraction":            {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, ElephantFraction: 1.5},
		"neg fraction":            {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, ElephantFraction: -0.1},
		"too many flows":          {RPS: 1, Service: dist.Fixed{D: 1}, Flows: task.MaxFlows + 1},
		"rat batch overflow":      {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, RatBatch: math.MaxUint32 + 1},
		"elephant batch overflow": {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, ElephantBatch: math.MaxUint32 + 1},
		"rat train overflow":      {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, RatTrain: math.MaxUint32 + 1},
		"elephant train overflow": {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, ElephantTrain: math.MaxUint32 + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewFlow did not panic", name)
				}
			}()
			NewFlow(eng, cfg, sink)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil sink: NewFlow did not panic")
			}
		}()
		NewFlow(eng, FlowConfig{RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1}, nil)
	}()
}
