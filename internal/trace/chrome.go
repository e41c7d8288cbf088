package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"mindgap/internal/sim"
)

// This file exports a Buffer in the Chrome trace-event JSON format, which
// ui.perfetto.dev and chrome://tracing open directly. The mapping:
//
//   - pid 1 "scheduler": one async track per request (ph "b"/"n"/"e",
//     keyed by request ID) spanning arrive→respond/drop, with async
//     instants for ingress, enqueue, dispatch, and drop.
//   - pid 2 "workers": one thread per worker core; each uninterrupted
//     execution segment (Start → Preempt/Complete) is a complete slice
//     (ph "X") on that worker's track, so preemptions appear as a request
//     hopping between rows exactly as it hops between cores.
//
// Timestamps are microseconds (the format's unit); sim.Time nanoseconds
// survive as fractional µs.

// ChromeEvent is one object of the Chrome trace-event format. Fields are
// exported for the encoder and for tests that parse the output back.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object container variant of the format.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	chromePidScheduler = 1
	chromePidWorkers   = 2
)

func toMicros(t sim.Time) float64 { return float64(t) / 1e3 }

// ChromeTraceEvents converts the buffer to trace-event objects. Events are
// emitted per request in lifecycle order, after the metadata naming the
// process and worker-thread tracks.
func ChromeTraceEvents(b *Buffer) []ChromeEvent {
	events := []ChromeEvent{
		metaEvent("process_name", chromePidScheduler, 0, "scheduler"),
		metaEvent("process_name", chromePidWorkers, 0, "workers"),
	}
	namedWorkers := map[int]bool{}
	_ = b.lifecycles(func(id uint64, lc []Event) error {
		reqName := fmt.Sprintf("req %d", id)
		asyncID := fmt.Sprintf("0x%x", id)
		async := func(ph string, at sim.Time, name string) ChromeEvent {
			return ChromeEvent{
				Name: name, Cat: "request", Ph: ph, Ts: toMicros(at),
				Pid: chromePidScheduler, Tid: 0, ID: asyncID,
			}
		}

		var openStart *Event // Start event awaiting its Preempt/Complete
		closeSlice := func(end Event) {
			if openStart == nil {
				return
			}
			dur := toMicros(end.At) - toMicros(openStart.At)
			events = append(events, ChromeEvent{
				Name: reqName, Cat: "exec", Ph: "X",
				Ts: toMicros(openStart.At), Dur: &dur,
				Pid: chromePidWorkers, Tid: int(openStart.Worker),
				Args: map[string]any{"end": end.Kind.String()},
			})
			openStart = nil
		}

		started := false
		for _, e := range lc {
			switch e.Kind {
			case Arrive:
				events = append(events, async("b", e.At, reqName))
				started = true
			case Ingress, Enqueue, Dispatch, Drop:
				if !started {
					// Lifecycle captured mid-flight: open the span at its
					// first event so the async track stays balanced.
					events = append(events, async("b", e.At, reqName))
					started = true
				}
				inst := async("n", e.At, e.Kind.String())
				if e.Kind == Drop && e.Reason != DropUnspecified {
					inst.Args = map[string]any{"reason": e.Reason.String()}
				}
				events = append(events, inst)
			case Start:
				e := e
				openStart = &e
				if w := int(e.Worker); w >= 0 && !namedWorkers[w] {
					namedWorkers[w] = true
					events = append(events,
						metaEvent("thread_name", chromePidWorkers, w,
							fmt.Sprintf("worker %d", w)))
				}
			case Preempt, Complete:
				closeSlice(e)
			}
		}
		// Close the async span at the request's final recorded instant —
		// Respond or Drop normally; the last event for in-flight requests.
		last := lc[len(lc)-1]
		if started {
			events = append(events, async("e", last.At, reqName))
		}
		closeSlice(last) // halted mid-execution: close as a zero-length slice
		return nil
	})
	return events
}

func metaEvent(name string, pid, tid int, value string) ChromeEvent {
	return ChromeEvent{
		Name: name, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": value},
	}
}

// WriteChrome serializes the buffer as Chrome trace-event JSON, ready for
// ui.perfetto.dev or chrome://tracing.
func WriteChrome(w io.Writer, b *Buffer) error {
	return WriteChromeWith(w, b, nil)
}

// WriteChromeWith serializes the buffer plus pre-built extra events —
// the attribution layer appends per-phase slice tracks and decision-audit
// counter tracks this way without the trace package knowing about them.
func WriteChromeWith(w io.Writer, b *Buffer, extra []ChromeEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTrace{
		TraceEvents:     append(ChromeTraceEvents(b), extra...),
		DisplayTimeUnit: "ns",
	})
}

// jsonEvent is the raw-export schema of one lifecycle event. Reason is
// omitted when unset, so traces without drop reasons serialize exactly as
// they did before reasons existed.
type jsonEvent struct {
	AtNS   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	ReqID  uint64 `json:"req"`
	Worker int    `json:"worker"`
	Reason string `json:"reason,omitempty"`
}

// WriteJSON serializes the raw event stream as a JSON array in record
// order — the machine-readable twin of the text format.
func WriteJSON(w io.Writer, b *Buffer) error {
	out := make([]jsonEvent, 0, b.Len())
	for _, c := range b.chunks {
		for _, e := range c {
			out = append(out, jsonEvent{
				AtNS: int64(e.At), Kind: e.Kind.String(), ReqID: e.ReqID, Worker: int(e.Worker),
				Reason: e.Reason.String(),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
