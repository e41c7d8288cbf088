package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"testing"

	"mindgap/internal/attr"
	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/trace"
	"mindgap/scenarios"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.json from the current exporters")

const digestFile = "testdata/digests.json"

// tracedPoint runs the mindgap-trace default preset (Shinjuku-Offload,
// bimodal service, seed 7) with the attribution collector attached until
// 2,000 requests complete. Its window spans several storage chunks.
func tracedPoint(t testing.TB) (*trace.Buffer, *attr.Collector) {
	t.Helper()
	p, err := scenarios.Load("trace-default")
	if err != nil {
		t.Fatal(err)
	}
	sp := p.SpecFor(0)
	svc, err := dist.Parse(sp.Workload)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.New(0)
	col := attr.New(attr.Config{KeepTimelines: true, AuditSamples: 4096})
	factory, err := scenario.BuildWith(sp, scenario.Options{Tracer: buf, Attr: col})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	completions := 0
	sys := factory(eng, nil, func(*task.Request) {
		completions++
		if completions >= 2000 {
			eng.Halt()
		}
	})
	loadgen.New(eng, loadgen.Config{RPS: sp.Load.RPS, Service: svc, Seed: sp.Seed}, sys.Inject).Start()
	eng.Run()
	if buf.Len() < 3*4096 {
		t.Fatalf("window holds %d events; the fixture must span at least three chunks", buf.Len())
	}
	return buf, col
}

// exportDigests hashes the Chrome export (with attribution tracks) and
// the raw JSON export of one traced point.
func exportDigests(t testing.TB, buf *trace.Buffer, col *attr.Collector) map[string]string {
	t.Helper()
	h := sha256.New()
	if err := trace.WriteChromeWith(h, buf, col.ChromeEvents()); err != nil {
		t.Fatal(err)
	}
	chrome := hex.EncodeToString(h.Sum(nil))
	h.Reset()
	if err := trace.WriteJSON(h, buf); err != nil {
		t.Fatal(err)
	}
	return map[string]string{"chrome_attr": chrome, "json": hex.EncodeToString(h.Sum(nil))}
}

// TestExportDigests pins the byte output of both exporters on a real
// traced point, so any drift in event order or encoding shows here.
func TestExportDigests(t *testing.T) {
	buf, col := tracedPoint(t)
	got := exportDigests(t, buf, col)
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s export digest = %s, want %s", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("digests %v, want keys of %v", got, want)
	}
}

// TestIndexMatchesNaiveScan checks Requests and Lifecycle against a
// reference that scans the whole window per request, filters it and
// stably sorts the matches by time.
func TestIndexMatchesNaiveScan(t *testing.T) {
	buf, _ := tracedPoint(t)
	events := buf.Events()
	var ids []uint64
	seen := map[uint64]bool{}
	for _, e := range events {
		if !seen[e.ReqID] {
			seen[e.ReqID] = true
			ids = append(ids, e.ReqID)
		}
	}
	slices.Sort(ids)
	if got := buf.Requests(); !slices.Equal(got, ids) {
		t.Fatalf("Requests() has %d IDs, naive scan %d", len(got), len(ids))
	}
	for _, id := range ids {
		var want []trace.Event
		for _, e := range events {
			if e.ReqID == id {
				want = append(want, e)
			}
		}
		slices.SortStableFunc(want, func(a, b trace.Event) int {
			switch {
			case a.At < b.At:
				return -1
			case a.At > b.At:
				return 1
			}
			return 0
		})
		if got := buf.Lifecycle(id); !slices.Equal(got, want) {
			t.Fatalf("Lifecycle(%d) = %v, naive scan %v", id, got, want)
		}
	}
}
