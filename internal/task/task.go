// Package task defines the application-level request that flows through
// every scheduling system in the reproduction. Requests carry the synthetic
// "fake work" service time of the paper's evaluation (§4.1) and the
// bookkeeping needed for preemption: a request preempted on one worker can
// later resume on any other (§3.4.1).
package task

import (
	"time"

	"mindgap/internal/sim"
)

// NoWorker is the LastWorker value of a request never assigned to a core.
const NoWorker = -1

// Request is one application-level request.
type Request struct {
	// ID uniquely identifies the request for its whole lifetime.
	ID uint64
	// ClientID identifies the issuing client (response routing).
	ClientID uint32
	// Key is an application key (e.g. a KVS key) used by flow-steering
	// baselines such as Flow Director; informed schedulers ignore it.
	Key uint64
	// Arrival is the instant the client transmitted the request.
	Arrival sim.Time
	// Service is the total fake-work service time.
	Service time.Duration
	// Remaining is the unfinished portion; it starts equal to Service and
	// shrinks across preemptions.
	Remaining time.Duration
	// Preemptions counts how many times the request was preempted.
	Preemptions int
	// Assignments counts dispatches to a worker (1 + Preemptions that led
	// to reassignment).
	Assignments int
	// LastWorker is the worker that most recently executed the request, or
	// NoWorker.
	LastWorker int
	// Enqueued is the last instant the request entered a scheduler queue;
	// policies and debugging use it.
	Enqueued sim.Time
	// FlowID identifies the parent flow for flow-keyed workloads; zero
	// for the classic i.i.d. request streams.
	FlowID FlowID
	// Flow names the parent flow's state record in the point's
	// FlowTable (zero for flowless requests). A flow-aware system reads
	// it once at classification and must zero it there: the record can
	// be recycled the instant the flow's last reference drops, so
	// holding the ref past classification is a use-after-release bug
	// waiting to happen.
	Flow FlowRef
	// Packets is how many wire packets this request stands for (a
	// DPDK-style batch for flow workloads); zero means a single packet.
	Packets uint32
	// Gen counts reuses of this struct through a Pool. A component that
	// must detect whether "its" request was recycled under it snapshots
	// (pointer, Gen) and compares later.
	Gen uint32
	// pooled guards against double release.
	pooled bool
}

// New creates a request with the full service time remaining.
func New(id uint64, arrival sim.Time, service time.Duration) *Request {
	return &Request{
		ID:         id,
		Arrival:    arrival,
		Service:    service,
		Remaining:  service,
		LastWorker: NoWorker,
	}
}

// Done reports whether the request has no work left.
//
//mindgap:noalloc
func (r *Request) Done() bool { return r.Remaining <= 0 }

// Pool recycles Request objects. A simulation sweep allocates one request
// per simulated arrival — millions per run — and in steady state every one
// is short-lived; the pool removes that allocation entirely. Recycling is
// generation-guarded: each reuse bumps Gen, and Put panics on double
// release. Requests that leave the system without an explicit release
// (dropped on a full queue deep inside a model) are simply collected by
// the GC; the pool replenishes itself on demand.
//
// The free list is capped at the measured high-water mark of concurrently
// live requests — the same adaptive policy as the engine's event free
// list — so the pool's footprint tracks the workload's actual in-flight
// peak rather than a magic constant.
type Pool struct {
	free []*Request
	live int // currently checked-out requests
	high int // peak live; caps the free list
}

// Get returns a request with the full service time remaining, recycled
// from the pool when possible.
//
//mindgap:noalloc
func (p *Pool) Get(id uint64, arrival sim.Time, service time.Duration) *Request {
	p.live++
	if p.live > p.high {
		p.high = p.live
	}
	n := len(p.free)
	if n == 0 {
		return New(id, arrival, service)
	}
	r := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*r = Request{
		ID:         id,
		Arrival:    arrival,
		Service:    service,
		Remaining:  service,
		LastWorker: NoWorker,
		Gen:        r.Gen, // survives recycling; bumped at Put
	}
	return r
}

// Put releases a request back to the pool. The caller must hold the only
// live reference (a request is released exactly once, at the instant its
// response reaches the client). Put panics on double release.
//
//mindgap:noalloc
func (p *Pool) Put(r *Request) {
	if r.pooled {
		panic("task: Put on an already-released request")
	}
	r.pooled = true
	r.Gen++
	p.live--
	if len(p.free) < p.high {
		p.free = append(p.free, r)
	}
}

// Live returns the number of checked-out requests.
func (p *Pool) Live() int { return p.live }

// HighWater returns the peak number of simultaneously live requests.
func (p *Pool) HighWater() int { return p.high }

// Latency returns the client-observed latency assuming the response reached
// the client at instant respAt.
//
//mindgap:noalloc
func (r *Request) Latency(respAt sim.Time) time.Duration {
	return respAt.Sub(r.Arrival)
}
