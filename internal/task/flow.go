// Flow identity: the per-flow state record behind the flow-keyed
// workload layer. Where Request models one unit of application work, a
// Flow models the network-level identity that SmartNIC offload engines
// key their state on — the 5-tuple a rule table matches, the connection
// a PnO-TCP engine owns. Systems that offload per-flow state (the
// flowrule kind) read and mutate the record; systems that ignore flow
// identity never touch it.
//
// Records live in a FlowTable, the way a NIC's flow table is a fixed
// array of compact entries addressed by index: a Flow holds no pointers
// and is named by a FlowRef, so a million-flow population is a handful
// of allocations the garbage collector never has to scan.
package task

import (
	"math/bits"

	"mindgap/internal/sim"
)

// FlowID uniquely identifies one flow for its whole lifetime (a
// stand-in for the 5-tuple hash a real NIC would match on).
type FlowID uint64

// FlowClass partitions flows by size, after the elephant/rat split of
// the SmartNIC offload literature: a few heavy-hitter elephants carry
// most packets, a long tail of rats carries the rest.
type FlowClass uint8

const (
	// ClassRat is a short flow: a handful of packets, dead before any
	// offload decision can pay off.
	ClassRat FlowClass = iota
	// ClassElephant is a long flow: the packet train that makes a
	// fast-path rule worth its insertion cost and table slot.
	ClassElephant
)

// FlowRef addresses one record of a FlowTable; the zero value names no
// flow.
type FlowRef uint32

// MaxFlows is the largest flow population a FlowTable is sized for. It
// is a quarter of the FlowRef space: the rest is headroom for retired
// flows whose records are still referenced (a resident rule, a pending
// insertion, a batch in flight) while their replacements are live.
const MaxFlows = 1 << 30

// Flow is the per-flow state record. It is referenced from two sides
// with different lifetimes: the load generator owns the workload view
// (Remaining, Retired) and a rule-table system owns the NIC view (Seen,
// Resident, PendingInsert, the LRU links). Neither side may free the
// record while the other still holds it — FlowTable.ReleaseIfIdle is
// the one release point, callable from either side, and a no-op until
// every reference is gone.
type Flow struct {
	// ID uniquely identifies the flow.
	ID FlowID
	// Seen counts packets the NIC classifier has observed — the signal
	// offload-threshold policies act on.
	Seen uint64
	// LastHit is the last fast-path hit instant (idle-timeout eviction).
	LastHit sim.Time
	// Remaining is how many packets the workload has yet to transmit.
	Remaining uint32
	// InFlight counts batches emitted by the generator but not yet
	// observed by the sink's classifier.
	InFlight uint32
	// Gen counts reuses of this record through its FlowTable, with the
	// same snapshot-and-compare discipline as Request.Gen.
	Gen uint32
	// LRUPrev and LRUNext link resident flows in recency order. They are
	// owned by the rule-table system; everything else must leave them be.
	LRUPrev, LRUNext FlowRef
	// Class is the flow's size class (elephant or rat).
	Class FlowClass
	// Resident marks an installed fast-path rule for this flow.
	Resident bool
	// PendingInsert marks a rule sitting in the insertion pipeline.
	PendingInsert bool
	// Retired marks the workload side done with the flow (train
	// exhausted). The record stays live until the NIC side lets go.
	Retired bool
	// released guards against double release.
	released bool
}

// FlowTable holds Flow records in fixed-size chunks and recycles them
// with the same generation-guarded discipline as Pool: each reuse bumps
// Gen and Put panics on double release. Chunks never move, so a ref —
// and the address At returns for it — stays valid while the table
// grows. The first chunks come from one allocation sized to the
// population; later chunks hold a sixteenth of it each (64 to 65536
// records), so a table's footprint tracks its population.
type FlowTable struct {
	chunks [][]Flow
	shift  uint32 // log2 of the chunk length
	mask   uint32 // chunk length - 1
	used   uint32 // records ever handed out: refs 1..used
	free   []FlowRef
	live   int
}

// NewFlowTable returns a table with room for population records in a
// single allocation.
func NewFlowTable(population int) *FlowTable {
	if population < 0 || population > MaxFlows {
		panic("task: flow population outside [0, MaxFlows]")
	}
	// Chunk length: a sixteenth of the population rounded up to a power
	// of two, clamped to [64, 65536] records.
	shift := uint32(bits.Len(uint(max(population/16, 1) - 1)))
	shift = min(max(shift, 6), 16)
	t := &FlowTable{shift: shift, mask: 1<<shift - 1}
	t.addChunks(max(1, (population+int(t.mask))>>shift))
	return t
}

// addChunks appends k chunks carved from one allocation. All record
// storage comes from here, off the hot path.
func (t *FlowTable) addChunks(k int) {
	n := 1 << t.shift
	block := make([]Flow, k*n)
	for i := 0; i < k; i++ {
		t.chunks = append(t.chunks, block[i*n:(i+1)*n:(i+1)*n])
	}
}

// At returns the record ref names. The pointer stays valid for the
// table's lifetime, but the record may be recycled once released:
// holders compare Gen, as with Request.
//
//mindgap:noalloc
func (t *FlowTable) At(ref FlowRef) *Flow {
	i := uint32(ref) - 1
	return &t.chunks[i>>t.shift][i&t.mask]
}

// Get returns a fresh record with the full packet train remaining,
// reusing the most recently released record when there is one.
//
//mindgap:noalloc
func (t *FlowTable) Get(id FlowID, class FlowClass, train uint32) FlowRef {
	var ref FlowRef
	if n := len(t.free); n > 0 {
		ref = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if t.used == uint32(len(t.chunks))<<t.shift {
			t.grow()
		}
		t.used++
		ref = FlowRef(t.used)
	}
	t.live++
	f := t.At(ref)
	*f = Flow{
		ID:        id,
		Class:     class,
		Remaining: train,
		Gen:       f.Gen, // survives recycling; bumped at Put
	}
	return ref
}

// grow adds one chunk once every record is in use.
func (t *FlowTable) grow() {
	if uint64(t.used)+uint64(t.mask)+1 > uint64(^FlowRef(0)) {
		panic("task: flow table exhausted the FlowRef space")
	}
	t.addChunks(1)
}

// Put releases a record to the table. The caller must hold the only
// live reference; ReleaseIfIdle is the usual (reference-counted) way
// in. Put panics on double release.
//
//mindgap:noalloc
func (t *FlowTable) Put(ref FlowRef) {
	f := t.At(ref)
	if f.released {
		panic("task: Put on an already-released flow")
	}
	f.released = true
	f.Gen++
	f.LRUPrev, f.LRUNext = 0, 0
	t.live--
	t.free = append(t.free, ref)
}

// ReleaseIfIdle releases the record once nothing references it: the
// workload retired the flow, no batch is in flight toward the
// classifier, and the NIC holds neither a resident rule nor a pending
// insertion. Both the generator and the rule-table system call it after
// clearing their reference; whichever call drops the last one frees the
// record. It reports whether the record was released.
//
//mindgap:noalloc
func (t *FlowTable) ReleaseIfIdle(ref FlowRef) bool {
	f := t.At(ref)
	if !f.Retired || f.InFlight != 0 || f.Resident || f.PendingInsert {
		return false
	}
	t.Put(ref)
	return true
}

// Live returns the number of records in use.
func (t *FlowTable) Live() int { return t.live }

// HighWater returns the peak number of simultaneously live records. A
// fresh record is taken only when none is free, so it is also the
// number of records ever handed out.
func (t *FlowTable) HighWater() int { return int(t.used) }
