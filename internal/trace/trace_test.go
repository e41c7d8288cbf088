package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mindgap/internal/sim"
)

func TestKindString(t *testing.T) {
	if Arrive.String() != "arrive" || Respond.String() != "respond" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestRecordAndLifecycle(t *testing.T) {
	b := New(100)
	b.Record(0, Arrive, 1, -1)
	b.Record(5, Ingress, 1, -1)
	b.Record(7, Enqueue, 1, -1)
	b.Record(9, Dispatch, 1, 2)
	b.Record(12, Start, 1, 2)
	b.Record(20, Complete, 1, 2)
	b.Record(25, Respond, 1, -1)
	// Interleave another request.
	b.Record(3, Arrive, 2, -1)

	lc := b.Lifecycle(1)
	if len(lc) != 7 {
		t.Fatalf("lifecycle events = %d", len(lc))
	}
	for i := 1; i < len(lc); i++ {
		if lc[i].At < lc[i-1].At {
			t.Fatal("lifecycle not time-ordered")
		}
	}
	if err := b.Validate(1); err != nil {
		t.Fatalf("valid lifecycle rejected: %v", err)
	}
	reqs := b.Requests()
	if len(reqs) != 2 || reqs[0] != 1 || reqs[1] != 2 {
		t.Fatalf("Requests = %v", reqs)
	}
	if !strings.Contains(b.Format(1), "dispatch req=1 w=2") {
		t.Fatalf("Format output:\n%s", b.Format(1))
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"complete without start", []Event{
			{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 5, Kind: Complete, ReqID: 1, Worker: 0},
		}},
		{"respond before complete", []Event{
			{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 1, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 2, Kind: Start, ReqID: 1, Worker: 0}, {At: 3, Kind: Respond, ReqID: 1, Worker: -1},
		}},
		{"double completion", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Start, ReqID: 1, Worker: 0}, {At: 2, Kind: Complete, ReqID: 1, Worker: 0}, {At: 3, Kind: Complete, ReqID: 1, Worker: 0},
		}},
		{"start without dispatch", []Event{
			{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 1, Kind: Start, ReqID: 1, Worker: 0},
		}},
		{"preempt before start", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Preempt, ReqID: 1, Worker: 0},
		}},
		{"drop after complete", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Start, ReqID: 1, Worker: 0}, {At: 2, Kind: Complete, ReqID: 1, Worker: 0}, {At: 3, Kind: Drop, ReqID: 1, Worker: -1},
		}},
		{"arrive mid-trace", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Arrive, ReqID: 1, Worker: -1},
		}},
	}
	for _, tc := range cases {
		b := New(100)
		for _, e := range tc.events {
			b.Record(e.At, e.Kind, e.ReqID, int(e.Worker))
		}
		if err := b.Validate(1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestValidateUnknownRequest(t *testing.T) {
	b := New(10)
	if err := b.Validate(99); err == nil {
		t.Fatal("empty lifecycle accepted")
	}
}

func TestPreemptionCycleIsLegal(t *testing.T) {
	b := New(100)
	steps := []Event{
		{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 1, Kind: Enqueue, ReqID: 1, Worker: -1},
		{At: 2, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 3, Kind: Start, ReqID: 1, Worker: 0}, {At: 13, Kind: Preempt, ReqID: 1, Worker: 0},
		{At: 14, Kind: Enqueue, ReqID: 1, Worker: -1}, {At: 15, Kind: Dispatch, ReqID: 1, Worker: 1}, {At: 16, Kind: Start, ReqID: 1, Worker: 1},
		{At: 20, Kind: Complete, ReqID: 1, Worker: 1}, {At: 22, Kind: Respond, ReqID: 1, Worker: -1},
	}
	for _, e := range steps {
		b.Record(e.At, e.Kind, e.ReqID, int(e.Worker))
	}
	if err := b.Validate(1); err != nil {
		t.Fatalf("legal preemption cycle rejected: %v", err)
	}
	if err := b.ValidateAll(); err != nil {
		t.Fatalf("ValidateAll: %v", err)
	}
}

func TestBufferCapacity(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Record(sim.Time(i), Arrive, uint64(i), -1)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if b.Truncated() != 2 {
		t.Fatalf("Truncated = %d, want 2", b.Truncated())
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 100, Kind: Start, ReqID: 7, Worker: 3}
	if !strings.Contains(e.String(), "w=3") {
		t.Fatalf("Event.String = %q", e.String())
	}
	e.Worker = -1
	if strings.Contains(e.String(), "w=") {
		t.Fatalf("workerless event mentions worker: %q", e.String())
	}
}

// recordSeq records n events whose fields derive from their record
// position, so order and content can be checked without keeping a copy.
func recordSeq(b *Buffer, n int) {
	for i := 0; i < n; i++ {
		b.Record(sim.Time(n-i), Kind(i%int(kindCount)), uint64(i%7), i%5-1)
	}
}

func seqEvent(n, i int) Event {
	return Event{At: sim.Time(n - i), Kind: Kind(i % int(kindCount)), ReqID: uint64(i % 7), Worker: int32(i%5 - 1)}
}

func TestChunkBoundaries(t *testing.T) {
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 1} {
		b := New(0)
		recordSeq(b, n)
		if b.Len() != n || b.Truncated() != 0 {
			t.Fatalf("n=%d: Len %d Truncated %d", n, b.Len(), b.Truncated())
		}
		if want := (n + chunkLen - 1) / chunkLen; len(b.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(b.chunks), want)
		}
		for i, c := range b.chunks {
			if cap(c) != chunkLen {
				t.Fatalf("n=%d: chunk %d has capacity %d", n, i, cap(c))
			}
		}
		evs := b.Events()
		if len(evs) != n {
			t.Fatalf("n=%d: Events() has %d", n, len(evs))
		}
		for i, e := range evs {
			if e != seqEvent(n, i) {
				t.Fatalf("n=%d: Events()[%d] = %v, want %v", n, i, e, seqEvent(n, i))
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, b); err != nil {
			t.Fatal(err)
		}
		var js []jsonEvent
		if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
			t.Fatal(err)
		}
		for i, j := range js {
			e := seqEvent(n, i)
			if j.AtNS != int64(e.At) || j.ReqID != e.ReqID || j.Worker != int(e.Worker) || j.Kind != e.Kind.String() {
				t.Fatalf("n=%d: WriteJSON event %d = %+v, want %v", n, i, j, e)
			}
		}
		if len(js) != n {
			t.Fatalf("n=%d: WriteJSON wrote %d events", n, len(js))
		}
		// Request 0's events span every chunk; times fall with position.
		lc := b.Lifecycle(0)
		if len(lc) != (n+6)/7 {
			t.Fatalf("n=%d: Lifecycle(0) has %d events", n, len(lc))
		}
		for i := 1; i < len(lc); i++ {
			if lc[i].At < lc[i-1].At {
				t.Fatalf("n=%d: Lifecycle(0) not time-ordered at %d", n, i)
			}
		}
	}
}

func TestWindowCappedMidChunk(t *testing.T) {
	const max = chunkLen + 100
	b := New(max)
	recordSeq(b, max+50)
	b.RecordDrop(0, 1, -1, DropShed)
	if b.Len() != max || b.Truncated() != 51 {
		t.Fatalf("Len %d Truncated %d, want %d and 51", b.Len(), b.Truncated(), max)
	}
	if len(b.chunks) != 2 || cap(b.chunks[1]) != 100 {
		t.Fatalf("chunks %d, last capacity %d: the last chunk must be sized to the window", len(b.chunks), cap(b.chunks[len(b.chunks)-1]))
	}
	evs := b.Events()
	if got, want := evs[len(evs)-1], seqEvent(max+50, max-1); got != want {
		t.Fatalf("last stored event %v, want %v", got, want)
	}
}

func TestIndexRebuiltAfterRecord(t *testing.T) {
	b := New(0)
	b.Record(10, Arrive, 2, -1)
	b.Record(20, Ingress, 2, -1)
	if got := b.Requests(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Requests = %v", got)
	}
	if len(b.Events()) != 2 {
		t.Fatal("Events before further records")
	}
	// An earlier request and a late-recorded but earlier-timed event.
	b.Record(5, Arrive, 1, -1)
	b.Record(15, Enqueue, 2, -1)
	if got := b.Requests(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Requests after further records = %v", got)
	}
	var kinds []Kind
	for _, e := range b.Lifecycle(2) {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) != 3 || kinds[0] != Arrive || kinds[1] != Enqueue || kinds[2] != Ingress {
		t.Fatalf("Lifecycle(2) kinds = %v", kinds)
	}
	if evs := b.Events(); len(evs) != 4 || evs[3].At != 15 {
		t.Fatalf("Events after further records = %v", evs)
	}
	if err := b.Validate(1); err != nil {
		t.Fatal(err)
	}
}

func TestEventSize(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s > 24 {
		t.Fatalf("Event is %d bytes, want at most 24", s)
	}
}

// TestFillAllocatesWindowOnce pins that filling a window allocates its
// events once, with no growth copies.
func TestFillAllocatesWindowOnce(t *testing.T) {
	const window = 1 << 16
	limit := 1.1 * float64(window) * float64(unsafe.Sizeof(Event{}))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b := New(window)
	recordSeq(b, window)
	runtime.ReadMemStats(&m1)
	if b.Len() != window {
		t.Fatalf("Len %d", b.Len())
	}
	if got := float64(m1.TotalAlloc - m0.TotalAlloc); got > limit {
		t.Fatalf("filling a %d-event window allocated %.0f B, limit %.0f B", window, got, limit)
	}
}

func TestRecordPanicsOnWideWorker(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("every int fits in int32")
	}
	wide := int64(math.MaxInt32) + 1
	for name, record := range map[string]func(*Buffer, int){
		"Record":     func(b *Buffer, w int) { b.Record(0, Start, 1, w) },
		"RecordDrop": func(b *Buffer, w int) { b.RecordDrop(0, 1, w, DropShed) },
	} {
		for _, w := range []int64{wide, -wide - 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(worker=%d) did not panic", name, w)
					}
				}()
				record(New(10), int(w))
			}()
		}
	}
	b := New(10)
	b.Record(0, Start, 1, math.MaxInt32)
	b.Record(0, Start, 1, math.MinInt32)
	if evs := b.Events(); evs[0].Worker != math.MaxInt32 || evs[1].Worker != math.MinInt32 {
		t.Fatalf("int32 extremes not kept: %v", evs)
	}
}
