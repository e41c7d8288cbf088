package trace

import (
	"io"
	"sort"
	"testing"

	"mindgap/internal/sim"
)

const benchWindow = 1 << 16

// benchRec is one event of the synthetic window.
type benchRec struct {
	at     sim.Time
	kind   Kind
	id     uint64
	worker int
}

// syntheticWindow returns the events of a traced offload run, in record
// (time) order: a request arrives every 400 ns on one of four workers,
// so about 25 are in flight at once, and every 14th is preempted once
// and resumes on the next worker. The first 65,536 events span about
// 9,000 requests.
func syntheticWindow() []benchRec {
	type step struct {
		dt     sim.Time
		kind   Kind
		worker int // -1: no worker; 0: the request's worker; 1: the next one
	}
	plain := []step{
		{0, Arrive, -1}, {1000, Ingress, -1}, {1500, Enqueue, -1}, {2000, Dispatch, 0},
		{2600, Start, 0}, {8000, Complete, 0}, {9500, Respond, -1},
	}
	preempted := []step{
		{0, Arrive, -1}, {1000, Ingress, -1}, {1500, Enqueue, -1}, {2000, Dispatch, 0},
		{2600, Start, 0}, {12600, Preempt, 0}, {12800, Enqueue, -1}, {13300, Dispatch, 1},
		{13900, Start, 1}, {20000, Complete, 1}, {21500, Respond, -1},
	}
	var recs []benchRec
	for id := uint64(1); len(recs) < benchWindow+1024; id++ {
		steps := plain
		if id%14 == 0 {
			steps = preempted
		}
		for _, s := range steps {
			w := -1
			if s.worker >= 0 {
				w = int(id+uint64(s.worker)) % 4
			}
			recs = append(recs, benchRec{at: sim.Time(id)*400 + s.dt, kind: s.kind, id: id, worker: w})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	return recs
}

// fill records recs into a fresh 65,536-event buffer.
func fill(recs []benchRec) *Buffer {
	b := New(benchWindow)
	for _, r := range recs {
		b.Record(r.at, r.kind, r.id, r.worker)
	}
	return b
}

var benchSink error

// BenchmarkTraceRecord fills one full 65,536-event window per operation.
func BenchmarkTraceRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := New(benchWindow)
		for j := 0; j < benchWindow; j++ {
			buf.Record(sim.Time(j), Start, uint64(j>>3), j&3)
		}
		if buf.Len() != benchWindow {
			b.Fatal("window not full")
		}
	}
}

// BenchmarkTraceValidateAll validates a freshly filled window per
// operation, so the cost of any read-side index is included.
func BenchmarkTraceValidateAll(b *testing.B) {
	recs := syntheticWindow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := fill(recs)
		b.StartTimer()
		benchSink = buf.ValidateAll()
		if benchSink != nil {
			b.Fatal(benchSink)
		}
	}
}

// BenchmarkTraceWriteChrome exports a freshly filled window per
// operation as Chrome trace-event JSON.
func BenchmarkTraceWriteChrome(b *testing.B) {
	recs := syntheticWindow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := fill(recs)
		b.StartTimer()
		benchSink = WriteChrome(io.Discard, buf)
		if benchSink != nil {
			b.Fatal(benchSink)
		}
	}
}
