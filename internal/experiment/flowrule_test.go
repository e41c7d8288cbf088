package experiment

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// smallFlowRulePreset shrinks the checked-in figure-flowrule preset to
// test size: runtime quality instead of the pinned counts, and a short
// fsweep grid.
func smallFlowRulePreset(t *testing.T) scenario.Preset {
	t.Helper()
	p := mustPreset("figure-flowrule")
	load := *p.Load
	load.FSweep = &scenario.FSweep{Lo: 256, Hi: 4096, Mul: 4}
	p.Load = &load
	for i := range p.Series {
		p.Series[i].Quality = nil
	}
	return p
}

// TestFlowRuleFigureParallelismInvariant pins the acceptance property
// that a figure-flowrule run is byte-identical at -j1 and -j4: flow
// records, rule tables, and telemetry registries are all per-point
// state, so runner parallelism must not leak into results.
func TestFlowRuleFigureParallelismInvariant(t *testing.T) {
	q := Quality{Warmup: 300, Measure: 2000, Seed: 7}
	render := func(parallelism int) []byte {
		spec, err := PresetFigureSpec(smallFlowRulePreset(t), q)
		if err != nil {
			t.Fatal(err)
		}
		f, err := spec.Run(context.Background(), &runner.Runner{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("figure-flowrule output differs between -j1 and -j4:\n-- j1 --\n%s\n-- j4 --\n%s", serial, parallel)
	}
}

// TestFlowRuleFigureShowsCrossover pins the X14 shape on the shrunken
// grid: every series must be healthy (unsaturated) at the smallest
// population, and the eager threshold-4 policy must be saturated even
// there — its insertion pipeline is flooded by rat flows.
func TestFlowRuleFigureShowsCrossover(t *testing.T) {
	q := Quality{Warmup: 300, Measure: 2000, Seed: 7}
	spec, err := PresetFigureSpec(smallFlowRulePreset(t), q)
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if len(s.Results) == 0 {
			t.Fatalf("series %q has no points", s.Label)
		}
		first := s.Results[0]
		if s.Label == "threshold 4 (offload everything)" {
			if !first.Saturated {
				t.Errorf("series %q: expected saturation at %v flows (flooded insertion pipeline)",
					s.Label, first.Point.OfferedRPS)
			}
			continue
		}
		if first.Saturated {
			t.Errorf("series %q: saturated at the smallest population %v flows",
				s.Label, first.Point.OfferedRPS)
		}
	}
}

// TestFlowRuleTableRows checks the detail table's telemetry plumbing on
// the full preset: every row must carry a coherent packet split and the
// policies must differ in the direction the model predicts.
func TestFlowRuleTableRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full-preset detail table is not -short sized")
	}
	rows, err := FlowRuleTableWith(context.Background(), nil, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 4 series x 5 populations", len(rows))
	}
	byLabel := map[string][]FlowRuleRow{}
	for _, r := range rows {
		if r.FastPackets+r.SlowPackets == 0 {
			t.Fatalf("row %s/%d saw no packets", r.Label, r.Flows)
		}
		if r.FastHitRate < 0 || r.FastHitRate > 1 {
			t.Fatalf("row %s/%d hit rate = %v", r.Label, r.Flows, r.FastHitRate)
		}
		byLabel[r.Label] = append(byLabel[r.Label], r)
	}
	eager, ok := byLabel["threshold 4 (offload everything)"]
	if !ok {
		t.Fatal("missing the threshold-4 series")
	}
	for _, r := range eager {
		if r.OffloadRefused == 0 {
			t.Errorf("threshold 4 at %d flows: no refused offloads; the insertion pipeline should overflow", r.Flows)
		}
	}
	// The million-flow acceptance point: the sweep's top population ran.
	var maxFlows int
	for _, r := range rows {
		if r.Flows > maxFlows {
			maxFlows = r.Flows
		}
	}
	if maxFlows < 1_000_000 {
		t.Errorf("largest population = %d, want >= 1M concurrent flows", maxFlows)
	}
}

// decorated wraps a System the way measurement harnesses do, by
// embedding the interface: only the interface's methods reach the
// wrapped system through it.
type decorated struct{ scenario.System }

// TestFlowTableReachesDecoratedSystem checks that RunPoint binds the
// point's flow table through a decorator embedding the System, so a
// wrapped flow-rule point measures exactly what the bare one does.
func TestFlowTableReachesDecoratedSystem(t *testing.T) {
	p := mustPreset("figure-flowrule")
	sp := p.SpecFor(1).WithFlows(1024)
	cfg, err := pointConfigFor(sp, Quality{Warmup: 300, Measure: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg.OfferedRPS = sp.Load.RPS
	bare := RunPoint(cfg)
	f := cfg.Factory
	cfg.Factory = func(eng *sim.Engine, rec *stats.Recorder, done func(*task.Request)) System {
		return decorated{f(eng, rec, done)}
	}
	wrapped := RunPoint(cfg)
	if bare.Completed == 0 || !reflect.DeepEqual(bare, wrapped) {
		t.Fatalf("decorated point = %+v, bare = %+v", wrapped, bare)
	}
}
