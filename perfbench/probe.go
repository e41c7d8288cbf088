package main

import (
	"time"

	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// probe sees inside one experiment.RunPoint call through the Factory
// handed to it: it captures the engine, times the system's
// construction, wraps the returned System to catch Inject, and wraps
// the completion callback to mark fixed-size windows of completions.
// With a span log it also records one span per Inject and per
// completion, both carrying the request's ID.
type probe struct {
	start  time.Time // repetition start: the workload's set-up begins here
	window int       // completions per measurement window

	eng      *sim.Engine
	buildNS  int64 // the inner factory call: system construction
	runStart int64 // ns since start when RunPoint was called
	injected bool
	setupNS  int64 // ns since start at the first Inject

	done  int
	next  int     // completion count at which the next window mark falls
	marks []int64 // ns at each window boundary

	log      *spanLog // nil when untraced
	rep, run int32    // enclosing rep and point spans
	setup    int32
}

func newProbe(start time.Time, warmup, window int, log *spanLog, rep int32) *probe {
	p := &probe{start: start, window: window, next: warmup, log: log, rep: rep, run: -1, setup: -1}
	if log != nil {
		p.setup = log.open(spanSetup, rep)
	}
	return p
}

func (p *probe) since() int64 { return int64(time.Since(p.start)) }

// wrap returns the factory to hand to RunPoint. Call it just before
// RunPoint, so runStart marks Point.Run's start.
func (p *probe) wrap(f scenario.Factory) scenario.Factory {
	p.runStart = p.since()
	return func(eng *sim.Engine, rec *stats.Recorder, done func(*task.Request)) scenario.System {
		p.eng = eng
		t := time.Now()
		var sys scenario.System
		if p.log != nil {
			sys = &tracedSystem{System: f(eng, rec, p.tracedDone(done)), p: p}
		} else {
			sys = &probedSystem{System: f(eng, rec, p.plainDone(done)), p: p}
		}
		p.buildNS += int64(time.Since(t))
		return sys
	}
}

func (p *probe) firstInject() {
	p.injected = true
	p.setupNS = p.since()
	if p.log != nil {
		now := p.log.now()
		p.log.closeAt(p.setup, now)
		p.run = p.log.open(spanPoint, p.rep)
	}
}

func (p *probe) plainDone(done func(*task.Request)) func(*task.Request) {
	return func(r *task.Request) {
		p.done++
		if p.done == p.next {
			p.marks = append(p.marks, p.since())
			p.next += p.window
		}
		done(r)
	}
}

func (p *probe) tracedDone(done func(*task.Request)) func(*task.Request) {
	return func(r *task.Request) {
		id := r.ID
		t0 := p.log.now()
		p.done++
		if p.done == p.next {
			p.marks = append(p.marks, t0)
			p.next += p.window
		}
		done(r)
		p.log.add(spanDone, p.run, id, t0, p.log.now())
	}
}

// windows returns host ns per completed request for every full window.
func (p *probe) windows() []float64 {
	var out []float64
	for i := 1; i < len(p.marks); i++ {
		out = append(out, float64(p.marks[i]-p.marks[i-1])/float64(p.window))
	}
	return out
}

// probedSystem notes the first Inject and otherwise forwards.
type probedSystem struct {
	scenario.System
	p *probe
}

func (s *probedSystem) Inject(r *task.Request) {
	if !s.p.injected {
		s.p.firstInject()
	}
	s.System.Inject(r)
}

// tracedSystem also records a span per Inject.
type tracedSystem struct {
	scenario.System
	p *probe
}

func (s *tracedSystem) Inject(r *task.Request) {
	p := s.p
	if !p.injected {
		p.firstInject()
	}
	id := r.ID
	t0 := p.log.now()
	s.System.Inject(r)
	p.log.add(spanInject, p.run, id, t0, p.log.now())
}
