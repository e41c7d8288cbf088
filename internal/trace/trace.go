// Package trace records request lifecycle events inside a simulated
// system: when a request arrived on the wire, entered the central queue,
// was dispatched, started executing, was preempted, completed, and when
// its response reached the client. Traces serve two purposes: debugging
// scheduling models, and asserting causal well-formedness in tests (a
// request must not complete before it starts, every dispatch must follow
// an enqueue, and so on).
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"mindgap/internal/sim"
)

// Kind labels one lifecycle step.
type Kind uint8

// Lifecycle steps, in their only legal relative order (Preempt/Requeue/
// Dispatch/Start may repeat as a group).
const (
	// Arrive: the client transmitted the request.
	Arrive Kind = iota
	// Ingress: the request reached the scheduler's networking subsystem.
	Ingress
	// Enqueue: the request entered the central queue.
	Enqueue
	// Dispatch: the scheduler assigned the request to a worker.
	Dispatch
	// Start: a worker core began (or resumed) executing.
	Start
	// Preempt: the slice expired or an interrupt landed.
	Preempt
	// Complete: the request finished all its work.
	Complete
	// Respond: the response reached the client.
	Respond
	// Drop: the request was shed (admission control or full queue).
	Drop
	kindCount
)

var kindNames = [...]string{
	"arrive", "ingress", "enqueue", "dispatch", "start", "preempt",
	"complete", "respond", "drop",
}

// String returns the step name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DropReason classifies why a request was dropped. The zero value means
// "unspecified" and keeps events recorded through Record byte-identical
// to traces taken before reasons existed.
type DropReason uint8

const (
	// DropUnspecified is the zero value: no reason was recorded.
	DropUnspecified DropReason = iota
	// DropShed: NIC-side admission control rejected the arrival (policy).
	DropShed
	// DropQueueCap: a bounded per-core queue was full (policy).
	DropQueueCap
	// DropTimeout: the dispatch timeout machinery exhausted its retry
	// budget — the request was lost to an injected fault and abandoned.
	DropTimeout
	// DropWireFault: the frame carrying the request was lost to an
	// injected fabric fault (fabric.Link's faultDropped path) with no
	// retry machinery guarding it — a permanent fault loss.
	DropWireFault
	// DropRingOverflow: the frame arrived at a full RX descriptor ring
	// while no credit scheme protected it (degraded steering).
	DropRingOverflow
	dropReasonCount
)

// DropReasonCount is the number of distinct drop reasons (array sizing).
const DropReasonCount = int(dropReasonCount)

var dropReasonNames = [...]string{
	"", "shed", "queue-cap", "timeout", "wire-fault", "ring-overflow",
}

// String returns the reason name ("" for DropUnspecified).
func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// PolicyDrop reports whether the reason is a deliberate scheduling
// decision (shed, queue cap) rather than an injected-fault loss.
func (r DropReason) PolicyDrop() bool { return r == DropShed || r == DropQueueCap }

// Event is one recorded lifecycle step. The field order packs it into
// 24 bytes.
type Event struct {
	At    sim.Time
	ReqID uint64
	// Worker is meaningful for Dispatch/Start/Preempt/Complete; else -1.
	Worker int32
	Kind   Kind
	// Reason is set on Drop events recorded through RecordDrop; zero
	// everywhere else.
	Reason DropReason
}

// String renders the event compactly.
func (e Event) String() string {
	var suffix string
	if e.Kind == Drop && e.Reason != DropUnspecified {
		suffix = " reason=" + e.Reason.String()
	}
	if e.Worker >= 0 {
		return fmt.Sprintf("%v %s req=%d w=%d%s", e.At, e.Kind, e.ReqID, e.Worker, suffix)
	}
	return fmt.Sprintf("%v %s req=%d%s", e.At, e.Kind, e.ReqID, suffix)
}

// chunkLen is the number of events in one storage chunk (96 KiB).
const chunkLen = 4096

// Buffer accumulates events up to a capacity; once full, further events
// are counted but not stored (a trace is a debugging window, not a log).
//
// Events are stored in chunks of 4,096, allocated as the window fills
// and never copied or regrown, so a window costs its own size once: 24 B
// per stored event. The read side (Requests, Lifecycle, Validate,
// ValidateAll, Format and the Chrome exporter) shares one per-request
// index, built by one sort on the first read and rebuilt when events
// were recorded since. The zero value is unusable; use New.
type Buffer struct {
	max     int
	n       int       // stored events
	chunks  [][]Event // chunks[i] holds events i*chunkLen onwards, in record order
	dropped uint64

	// The index, valid while indexed == n.
	indexed int
	order   []int32  // event positions sorted by request ID, then time, then position
	reqs    []uint64 // distinct request IDs, ascending
	starts  []int32  // reqs[i]'s events are order[starts[i]:starts[i+1]]

	flat []Event // Events' copy, valid while len(flat) == n
}

// New creates a buffer holding at most max events. max <= 0 means 2^20
// events, at most 24 MiB, allocated as used; max is capped at 2^31-1.
func New(max int) *Buffer {
	if max <= 0 {
		max = 1 << 20
	}
	return &Buffer{max: min(max, math.MaxInt32)}
}

// Record appends an event if capacity remains. It panics if worker does
// not fit in an int32.
func (b *Buffer) Record(at sim.Time, kind Kind, reqID uint64, worker int) {
	b.add(Event{At: at, ReqID: reqID, Worker: worker32(worker), Kind: kind})
}

// RecordDrop appends a Drop event carrying the reason the request was
// lost, so attribution can distinguish policy drops (shed, queue cap)
// from injected-fault losses. It panics if worker does not fit in an
// int32.
func (b *Buffer) RecordDrop(at sim.Time, reqID uint64, worker int, reason DropReason) {
	b.add(Event{At: at, ReqID: reqID, Worker: worker32(worker), Kind: Drop, Reason: reason})
}

func (b *Buffer) add(e Event) {
	if b.n >= b.max {
		b.dropped++
		return
	}
	if b.n%chunkLen == 0 {
		b.chunks = append(b.chunks, make([]Event, 0, min(chunkLen, b.max-b.n)))
	}
	c := &b.chunks[len(b.chunks)-1]
	*c = append(*c, e) // within capacity: never reallocates
	b.n++
}

func worker32(w int) int32 {
	if int(int32(w)) != w {
		panic(fmt.Sprintf("trace: worker %d does not fit in int32", w))
	}
	return int32(w)
}

// Len returns the number of stored events.
func (b *Buffer) Len() int { return b.n }

// Truncated returns how many events did not fit.
func (b *Buffer) Truncated() uint64 { return b.dropped }

// Events returns all stored events in record order. The first call after
// new records builds a flat copy of the window, which later calls share;
// callers must not modify it.
func (b *Buffer) Events() []Event {
	if len(b.flat) != b.n {
		flat := make([]Event, 0, b.n)
		for _, c := range b.chunks {
			flat = append(flat, c...)
		}
		b.flat = flat
	}
	return b.flat
}

func (b *Buffer) at(p int32) *Event { return &b.chunks[p/chunkLen][p%chunkLen] }

// index builds the per-request index unless it covers every stored
// event already. Sorting positions by (request ID, time, position)
// gives each request's events in the order a stable sort by time of its
// record-order events would.
func (b *Buffer) index() {
	if b.indexed == b.n {
		return
	}
	order := slices.Grow(b.order[:0], b.n)
	for p := range int32(b.n) {
		order = append(order, p)
	}
	slices.SortFunc(order, func(p, q int32) int {
		e, f := b.at(p), b.at(q)
		if c := cmp.Compare(e.ReqID, f.ReqID); c != 0 {
			return c
		}
		if c := cmp.Compare(e.At, f.At); c != 0 {
			return c
		}
		return cmp.Compare(p, q)
	})
	reqs, starts := b.reqs[:0], b.starts[:0]
	for i, p := range order {
		if id := b.at(p).ReqID; len(reqs) == 0 || id != reqs[len(reqs)-1] {
			reqs = append(reqs, id)
			starts = append(starts, int32(i))
		}
	}
	b.order, b.reqs, b.starts, b.indexed = order, reqs, append(starts, int32(len(order))), b.n
}

// gather appends the events at positions ps to dst.
func (b *Buffer) gather(dst []Event, ps []int32) []Event {
	for _, p := range ps {
		dst = append(dst, *b.at(p))
	}
	return dst
}

// lifecycles calls fn for every request in ID order with its events in
// time order, stopping at the first error. lc is reused between calls.
func (b *Buffer) lifecycles(fn func(reqID uint64, lc []Event) error) error {
	b.index()
	var lc []Event
	for i, id := range b.reqs {
		lc = b.gather(lc[:0], b.order[b.starts[i]:b.starts[i+1]])
		if err := fn(id, lc); err != nil {
			return err
		}
	}
	return nil
}

// Lifecycle returns the events of one request in time order.
func (b *Buffer) Lifecycle(reqID uint64) []Event {
	b.index()
	i, ok := slices.BinarySearch(b.reqs, reqID)
	if !ok {
		return nil
	}
	ps := b.order[b.starts[i]:b.starts[i+1]]
	return b.gather(make([]Event, 0, len(ps)), ps)
}

// Requests returns the distinct request IDs present in the buffer, in
// ascending order.
func (b *Buffer) Requests() []uint64 {
	b.index()
	return slices.Clone(b.reqs)
}

// Format renders a request's lifecycle as one line per event.
func (b *Buffer) Format(reqID uint64) string {
	var sb strings.Builder
	for _, e := range b.Lifecycle(reqID) {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Validate checks the causal well-formedness of one request's lifecycle.
// It returns nil for incomplete traces (a request still in flight) as long
// as the prefix is legal.
func (b *Buffer) Validate(reqID uint64) error {
	return validate(reqID, b.Lifecycle(reqID))
}

// validate checks one request's events, given in time order.
func validate(reqID uint64, evs []Event) error {
	if len(evs) == 0 {
		return fmt.Errorf("trace: no events for request %d", reqID)
	}
	var started, completed, dropped int
	var dispatched, preempted int
	prev := sim.Time(-1)
	for i, e := range evs {
		if e.At < prev {
			return fmt.Errorf("trace: request %d event %d goes back in time", reqID, i)
		}
		prev = e.At
		switch e.Kind {
		case Arrive:
			if i != 0 {
				return fmt.Errorf("trace: request %d arrives mid-trace", reqID)
			}
		case Dispatch:
			dispatched++
		case Start:
			started++
			if started > dispatched {
				return fmt.Errorf("trace: request %d started more times than dispatched", reqID)
			}
		case Preempt:
			preempted++
			if preempted > started {
				return fmt.Errorf("trace: request %d preempted before starting", reqID)
			}
		case Complete:
			completed++
			if completed > 1 {
				return fmt.Errorf("trace: request %d completed twice", reqID)
			}
			if started == 0 {
				return fmt.Errorf("trace: request %d completed without starting", reqID)
			}
		case Respond:
			if completed == 0 {
				return fmt.Errorf("trace: request %d responded before completing", reqID)
			}
		case Drop:
			dropped++
			if completed > 0 {
				return fmt.Errorf("trace: request %d dropped after completing", reqID)
			}
		}
	}
	if completed > 0 && dropped > 0 {
		return fmt.Errorf("trace: request %d both completed and dropped", reqID)
	}
	return nil
}

// ValidateAll validates every request in the buffer.
func (b *Buffer) ValidateAll() error {
	return b.lifecycles(validate)
}
