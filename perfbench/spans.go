package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Span names: the boundaries the benchmark itself drives. Spans inside
// the simulator are out of scope; these wrap the calls into it.
const (
	spanWorkload = iota // the whole traced phase
	spanRep             // one repetition: set-up plus one point (or one sweep pass)
	spanSetup           // repetition start → first Inject (or → first Point.Run)
	spanPoint           // experiment.RunPoint, or one wrapped runner.Point.Run
	spanInject          // one wrapped System.Inject call
	spanDone            // one wrapped completion callback
	spanKinds
)

var spanNames = [spanKinds]string{"workload", "rep", "setup", "point", "inject", "done"}

// maxSpans caps the spans kept in memory. Past it, spans are still
// counted and timed (the per-name totals stay exact) but not stored.
const maxSpans = 1 << 18

// span is one recorded interval. Inject and done spans carry the
// request ID, so both spans of one request share it; a sweep's point
// spans carry the point's index in the pass; other spans carry 0.
type span struct {
	id         uint64
	parent     int32
	kind       uint8
	start, end int64 // ns since the log's base
}

// spanLog keeps spans in memory until the run ends. It is not safe for
// concurrent use: the sweep serialises its calls under its own mutex.
type spanLog struct {
	base  time.Time
	spans []span
	lost  int64

	// Per-kind count and total duration over every span, including those
	// past the cap; lostChild is the time covered by a stored span's
	// children that were past the cap (leaves, so they cover no one).
	count     [spanKinds]int64
	total     [spanKinds]int64
	lostChild map[int32]int64
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 4096), lostChild: map[int32]int64{}}
}

// now returns ns since the log's base (monotonic).
func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// open starts a structural span (workload, rep, setup, point) and
// returns its index; structural spans are few and always stored.
func (l *spanLog) open(kind uint8, parent int32) int32 {
	l.spans = append(l.spans, span{parent: parent, kind: kind, start: l.now(), end: -1})
	return int32(len(l.spans) - 1)
}

// close ends a span opened with open.
func (l *spanLog) close(i int32) { l.closeAt(i, l.now()) }

func (l *spanLog) closeAt(i int32, end int64) {
	s := &l.spans[i]
	s.end = end
	l.count[s.kind]++
	l.total[s.kind] += end - s.start
}

// add records a finished leaf span (inject, done, or a sweep point).
func (l *spanLog) add(kind uint8, parent int32, id uint64, start, end int64) {
	l.count[kind]++
	l.total[kind] += end - start
	if len(l.spans) >= maxSpans {
		l.lost++
		if parent >= 0 {
			l.lostChild[parent] += end - start
		}
		return
	}
	l.spans = append(l.spans, span{id: id, parent: parent, kind: kind, start: start, end: end})
}

// meanNS returns the mean duration of kind-k spans, or 0 if none.
func (l *spanLog) meanNS(k int) float64 {
	if l.count[k] == 0 {
		return 0
	}
	return float64(l.total[k]) / float64(l.count[k])
}

// selfNS returns each kind's self time: its spans' total duration minus
// the part of each span's interval that its children cover. Children of
// one sweep pass run in parallel, so coverage is the union of their
// intervals, not their sum.
func (l *spanLog) selfNS() [spanKinds]int64 {
	kids := map[int32][][2]int64{}
	for _, s := range l.spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := l.total
	for p, iv := range kids {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, until int64 = 0, iv[0][0]
		for _, v := range iv {
			if v[1] > until {
				covered += v[1] - max(v[0], until)
				until = v[1]
			}
		}
		self[l.spans[p].kind] -= covered
	}
	for p, d := range l.lostChild {
		self[l.spans[p].kind] -= d
	}
	return self
}

// writeCSV writes every stored span, one per line.
func (l *spanLog) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,name,id,start_ns,end_ns")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i, s.parent, spanNames[s.kind], s.id, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary prints per-kind counts, total and self time.
func (l *spanLog) printSummary(w io.Writer, path string) {
	fmt.Fprintf(w, "spans: %d stored, %d counted past the %d cap, written to %s\n",
		len(l.spans), l.lost, maxSpans, path)
	fmt.Fprintf(w, "  %-9s %10s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_ns")
	self := l.selfNS()
	for k := range spanKinds {
		if l.count[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s %10d %12.1f %12.1f %10.0f\n", spanNames[k], l.count[k],
			float64(l.total[k])/1e6, float64(self[k])/1e6, l.meanNS(k))
	}
}
