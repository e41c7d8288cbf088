// The flow generator: the flow-identity-keyed counterpart of the
// open-loop request generator. Where Generator emits i.i.d. requests,
// FlowGenerator maintains an exact population of concurrent flows —
// elephants and rats with per-class packet trains — and emits each
// request as one DPDK-style packet batch stamped with its flow's
// identity and the ref of its state record in the generator's
// FlowTable. Flow-state systems (the flowrule kind) key their rule
// tables on those records; flow-blind systems simply see a request
// stream whose service times happen to be batch-sized.
package loadgen

import (
	"math"
	"math/rand/v2"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Default batch and train sizes, from the chen622/SmartNICSimulator
// exemplar: rats ride 4-packet bursts and die young; elephants ride
// 64-packet bursts and live for many of them.
const (
	DefaultRatBatch      = 4
	DefaultElephantBatch = 64
	DefaultRatTrain      = DefaultRatBatch
	DefaultElephantTrain = 16 * DefaultElephantBatch
)

// FlowConfig describes one flow-keyed client workload.
type FlowConfig struct {
	// RPS is the offered batch arrival rate (batches per second); each
	// batch is one Request standing for up to a class-batch of packets.
	RPS float64
	// Service samples the slow-path per-packet processing cost; a
	// batch's Service time is the per-packet draw times its packet
	// count.
	Service dist.Distribution
	// Flows is the concurrent flow population, held exactly constant: a
	// retiring flow is replaced by a fresh one the same instant. Churn
	// (and with it rule-table pressure) comes from the flows' finite
	// packet trains, not from a drifting population. At most
	// task.MaxFlows.
	Flows int
	// ElephantFraction is the fraction of spawned flows that are
	// elephants, applied exactly via an error accumulator (a fraction of
	// 0.2 makes every fifth spawn an elephant, not a coin flip).
	ElephantFraction float64
	// RatBatch and ElephantBatch are packets per emitted batch (defaults
	// 4 and 64; at most math.MaxUint32).
	RatBatch, ElephantBatch int
	// RatTrain and ElephantTrain are packets per flow lifetime (defaults
	// 4 and 1024; at most math.MaxUint32).
	RatTrain, ElephantTrain int
	// Seed makes the arrival, selection, and service streams
	// reproducible.
	Seed uint64
	// MaxArrivals stops generation after this many batches (0 = run
	// until the engine halts).
	MaxArrivals uint64
	// ClientID is stamped on every request.
	ClientID uint32
	// Pool, when set, recycles Request objects (as in Config).
	Pool *task.Pool
}

// FlowGenerator produces flow-keyed batches on a simulation engine and
// hands them to a sink at their arrival instants.
type FlowGenerator struct {
	// Counters holds the shared arrival accounting (Arrivals, Packets,
	// Flows accessors — the same set the request generator exposes).
	Counters

	eng  *sim.Engine
	cfg  FlowConfig
	rng  *rand.Rand
	sink func(*task.Request)

	// table holds every flow record. A record is released by whoever
	// drops the flow's last reference — the generator or the system the
	// table is bound to — via FlowTable.ReleaseIfIdle.
	table *task.FlowTable
	// active is the dense live-flow population; batch arrivals index it
	// uniformly and retirement swap-deletes, so selection is O(1) and
	// allocation-free.
	active []task.FlowRef

	nextReqID  uint64
	nextFlowID task.FlowID
	// elephantCredit is the class error accumulator: += fraction per
	// spawn, an elephant whenever it crosses 1.
	elephantCredit float64
	retiredFlows   uint64
}

// NewFlow creates a flow generator and its flow table, sized to the
// population. sink is called exactly at each batch's arrival instant.
func NewFlow(eng *sim.Engine, cfg FlowConfig, sink func(*task.Request)) *FlowGenerator {
	if cfg.RPS <= 0 {
		panic("loadgen: RPS must be positive")
	}
	if cfg.Service == nil {
		panic("loadgen: service distribution required")
	}
	if sink == nil {
		panic("loadgen: sink required")
	}
	if cfg.Flows <= 0 || cfg.Flows > task.MaxFlows {
		panic("loadgen: flow population must be in [1, task.MaxFlows]")
	}
	if cfg.ElephantFraction < 0 || cfg.ElephantFraction > 1 {
		panic("loadgen: elephant fraction must be in [0, 1]")
	}
	if cfg.RatBatch <= 0 {
		cfg.RatBatch = DefaultRatBatch
	}
	if cfg.ElephantBatch <= 0 {
		cfg.ElephantBatch = DefaultElephantBatch
	}
	if cfg.RatTrain <= 0 {
		cfg.RatTrain = DefaultRatTrain
	}
	if cfg.ElephantTrain <= 0 {
		cfg.ElephantTrain = DefaultElephantTrain
	}
	if int64(max(cfg.RatBatch, cfg.ElephantBatch, cfg.RatTrain, cfg.ElephantTrain)) > math.MaxUint32 {
		panic("loadgen: batch and train sizes must fit in uint32")
	}
	return &FlowGenerator{
		eng:   eng,
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x6d696e64676170)), // "mindgap"
		sink:  sink,
		table: task.NewFlowTable(cfg.Flows),
	}
}

// Table returns the flow table that the emitted requests' Flow refs
// index; a flow-aware system must be bound to it.
func (g *FlowGenerator) Table() *task.FlowTable { return g.table }

// Start spawns the initial flow population and schedules the first
// batch arrival. Generation continues open-loop until MaxArrivals (if
// set) or until the engine halts.
func (g *FlowGenerator) Start() {
	g.active = make([]task.FlowRef, 0, g.cfg.Flows)
	for i := 0; i < g.cfg.Flows; i++ {
		g.spawn()
	}
	g.eng.AfterE(expGap(g.rng, g.cfg.RPS), flowGenBatch, g, nil, 0)
}

// Population returns the current number of live flows (constant by
// construction; tests pin it).
func (g *FlowGenerator) Population() int { return len(g.active) }

// RetiredFlows returns how many flows have exhausted their trains.
func (g *FlowGenerator) RetiredFlows() uint64 { return g.retiredFlows }

// spawn starts one flow: assign its class by exact proportion, draw its
// train, and add it to the live population.
//
//mindgap:noalloc
func (g *FlowGenerator) spawn() {
	g.nextFlowID++
	class, train := task.ClassRat, uint32(g.cfg.RatTrain)
	g.elephantCredit += g.cfg.ElephantFraction
	if g.elephantCredit >= 1 {
		g.elephantCredit--
		class, train = task.ClassElephant, uint32(g.cfg.ElephantTrain)
	}
	g.flows++
	g.active = append(g.active, g.table.Get(g.nextFlowID, class, train))
}

// flowGenBatch fires at each batch arrival instant: pick a live flow
// uniformly, emit one batch of its train, retire-and-replace it if the
// train is exhausted, and schedule the next arrival. Typed event,
// pooled request, table-held flow record, swap-delete population — the
// steady-state path is allocation-free.
//
//mindgap:noalloc
func flowGenBatch(recv, _ any, _ uint64) {
	g := recv.(*FlowGenerator)
	if g.cfg.MaxArrivals > 0 && g.arrivals >= g.cfg.MaxArrivals {
		return
	}
	idx := g.rng.IntN(len(g.active))
	ref := g.active[idx]
	f := g.table.At(ref)
	batch := uint32(g.cfg.RatBatch)
	if f.Class == task.ClassElephant {
		batch = uint32(g.cfg.ElephantBatch)
	}
	if batch > f.Remaining {
		batch = f.Remaining
	}
	g.nextReqID++
	g.arrivals++
	g.packets += uint64(batch)
	svc := g.cfg.Service.Sample(g.rng) * time.Duration(batch)
	var req *task.Request
	if g.cfg.Pool != nil {
		req = g.cfg.Pool.Get(g.nextReqID, g.eng.Now(), svc)
	} else {
		req = task.New(g.nextReqID, g.eng.Now(), svc)
	}
	req.ClientID = g.cfg.ClientID
	req.FlowID = f.ID
	req.Flow = ref
	req.Packets = batch
	f.Remaining -= batch
	f.InFlight++
	if f.Remaining == 0 {
		// Train exhausted: retire the flow and spawn its replacement in
		// the same instant, keeping the population exact. The record
		// itself stays live — at least this batch is still in flight —
		// and is freed by whoever drops its last reference.
		f.Retired = true
		last := len(g.active) - 1
		g.active[idx] = g.active[last]
		g.active = g.active[:last]
		g.retiredFlows++
		g.spawn()
	}
	g.sink(req)
	g.eng.AfterE(expGap(g.rng, g.cfg.RPS), flowGenBatch, g, nil, 0)
}
