package task

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

func TestFlowPoolRecyclesWithGenBump(t *testing.T) {
	tab := NewFlowTable(4)
	ref := tab.Get(1, ClassElephant, 1024)
	f := tab.At(ref)
	if f.ID != 1 || f.Class != ClassElephant || f.Remaining != 1024 {
		t.Fatalf("fresh flow = %+v", f)
	}
	g0 := f.Gen
	f.Seen, f.Resident = 99, true
	f.Resident = false
	tab.Put(ref)
	ref2 := tab.Get(2, ClassRat, 4)
	if ref2 != ref {
		t.Fatalf("table did not recycle the freed record: got ref %d, want %d", ref2, ref)
	}
	f2 := tab.At(ref2)
	if f2.Gen != g0+1 {
		t.Fatalf("Gen = %d after recycle, want %d", f2.Gen, g0+1)
	}
	if f2.ID != 2 || f2.Class != ClassRat || f2.Remaining != 4 || f2.Seen != 0 ||
		f2.Resident || f2.PendingInsert || f2.Retired || f2.InFlight != 0 {
		t.Fatalf("recycled flow not reset: %+v", f2)
	}
}

func TestFlowPoolDoubleReleasePanics(t *testing.T) {
	tab := NewFlowTable(4)
	ref := tab.Get(1, ClassRat, 4)
	tab.Put(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	tab.Put(ref)
}

func TestFlowReleaseIfIdleRefCounting(t *testing.T) {
	tab := NewFlowTable(4)
	ref := tab.Get(1, ClassElephant, 64)
	f := tab.At(ref)
	// Every reference in turn keeps the record alive.
	holds := []struct {
		name  string
		set   func()
		clear func()
	}{
		{"not retired", func() {}, func() { f.Retired = true }},
		{"in flight", func() { f.InFlight = 1 }, func() { f.InFlight = 0 }},
		{"resident rule", func() { f.Resident = true }, func() { f.Resident = false }},
		{"pending insert", func() { f.PendingInsert = true }, func() { f.PendingInsert = false }},
	}
	for _, h := range holds {
		h.set()
		if tab.ReleaseIfIdle(ref) {
			t.Fatalf("released while %s", h.name)
		}
		if tab.Live() != 1 {
			t.Fatalf("live = %d while %s", tab.Live(), h.name)
		}
		h.clear()
	}
	if !tab.ReleaseIfIdle(ref) {
		t.Fatal("idle flow not released")
	}
	if tab.Live() != 0 {
		t.Fatalf("live = %d after release", tab.Live())
	}
}

func TestFlowPoolFreeListCappedAtHighWater(t *testing.T) {
	tab := NewFlowTable(4)
	var refs []FlowRef
	for i := 0; i < 3; i++ {
		refs = append(refs, tab.Get(FlowID(i), ClassRat, 4))
	}
	if tab.HighWater() != 3 {
		t.Fatalf("high water = %d, want 3", tab.HighWater())
	}
	for _, ref := range refs {
		tab.Put(ref)
	}
	// Churn through many more flows: the free list must stay bounded by
	// the high-water mark, one at a time, and the table must not grow.
	chunks := len(tab.chunks)
	for i := 0; i < 100; i++ {
		tab.Put(tab.Get(FlowID(i), ClassRat, 4))
	}
	if len(tab.free) > tab.HighWater() {
		t.Fatalf("free list %d exceeds high water %d", len(tab.free), tab.HighWater())
	}
	if tab.HighWater() != 3 || len(tab.chunks) != chunks {
		t.Fatalf("churn grew the table: high water %d, chunks %d -> %d", tab.HighWater(), chunks, len(tab.chunks))
	}
}

func TestFlowPoolPutClearsLRULinks(t *testing.T) {
	tab := NewFlowTable(4)
	a, b := tab.Get(1, ClassRat, 4), tab.Get(2, ClassRat, 4)
	tab.At(a).LRUNext, tab.At(b).LRUPrev = b, a
	tab.Put(a)
	tab.Put(b)
	fa, fb := tab.At(a), tab.At(b)
	if fa.LRUPrev != 0 || fa.LRUNext != 0 || fb.LRUPrev != 0 || fb.LRUNext != 0 {
		t.Fatal("Put left LRU links dangling")
	}
}

// TestFlowHasNoPointers keeps the record pointer-free, so a table's
// chunks are memory the garbage collector never scans.
func TestFlowHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a pointer-carrying %s", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Flow", reflect.TypeOf(Flow{}))
}

// TestFlowRecordSize pins the record's footprint: a million-flow point
// holds a million of them.
func TestFlowRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Flow{}); n > 56 {
		t.Fatalf("sizeof(Flow) = %d B, want <= 56", n)
	}
}

func TestFlowTableRefsStableAcrossGrowth(t *testing.T) {
	tab := NewFlowTable(64)
	type held struct {
		ref  FlowRef
		addr *Flow
	}
	var hs []held
	for i := 1; i <= 64; i++ {
		ref := tab.Get(FlowID(i), ClassRat, uint32(i))
		hs = append(hs, held{ref, tab.At(ref)})
	}
	chunks := len(tab.chunks)
	for i := 65; i <= 1000; i++ {
		ref := tab.Get(FlowID(i), ClassElephant, uint32(i))
		hs = append(hs, held{ref, tab.At(ref)})
	}
	if len(tab.chunks) <= chunks {
		t.Fatalf("table did not grow: %d chunks before and after", chunks)
	}
	seen := map[FlowRef]bool{}
	for i, h := range hs {
		if h.ref == 0 || seen[h.ref] {
			t.Fatalf("flow %d: ref %d is zero or handed out twice", i+1, h.ref)
		}
		seen[h.ref] = true
		if got := tab.At(h.ref); got != h.addr {
			t.Fatalf("flow %d: At(%d) moved from %p to %p", i+1, h.ref, h.addr, got)
		}
		if f := h.addr; f.ID != FlowID(i+1) || f.Remaining != uint32(i+1) {
			t.Fatalf("flow %d: record holds %+v", i+1, *f)
		}
	}
}

func TestFlowTableReuseOrderDeterministic(t *testing.T) {
	run := func() []FlowRef {
		tab := NewFlowTable(8)
		var refs []FlowRef
		for i := 0; i < 8; i++ {
			refs = append(refs, tab.Get(FlowID(i), ClassRat, 4))
		}
		for _, i := range []int{5, 1, 6} {
			tab.Put(refs[i])
		}
		var out []FlowRef
		for i := 0; i < 4; i++ {
			out = append(out, tab.Get(FlowID(100+i), ClassRat, 4))
		}
		return out
	}
	got := run()
	// Most recently released first, then the next fresh record.
	want := []FlowRef{7, 2, 6, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reuse order = %v, want %v", got, want)
	}
	if again := run(); !reflect.DeepEqual(again, got) {
		t.Fatalf("reuse order not deterministic: %v then %v", got, again)
	}
}

func TestFlowTableLiveAndHighWater(t *testing.T) {
	tab := NewFlowTable(16)
	var refs []FlowRef
	for i := 0; i < 10; i++ {
		refs = append(refs, tab.Get(FlowID(i), ClassRat, 4))
	}
	for _, ref := range refs[:6] {
		tab.Put(ref)
	}
	if tab.Live() != 4 || tab.HighWater() != 10 {
		t.Fatalf("live/high = %d/%d after 10 gets and 6 puts, want 4/10", tab.Live(), tab.HighWater())
	}
	for i := 0; i < 8; i++ {
		tab.Get(FlowID(20+i), ClassRat, 4)
	}
	if tab.Live() != 12 || tab.HighWater() != 12 {
		t.Fatalf("live/high = %d/%d after 8 more gets, want 12/12", tab.Live(), tab.HighWater())
	}
}

// TestFlowTableBytesProportional checks that a table's footprint
// follows its population: a 4096-flow table costs about 4096 records,
// not a fixed large chunk.
func TestFlowTableBytesProportional(t *testing.T) {
	const pop = 4096
	rec := int(unsafe.Sizeof(Flow{}))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tab := NewFlowTable(pop)
	for i := 0; i < pop; i++ {
		tab.Get(FlowID(i), ClassRat, 4)
	}
	runtime.ReadMemStats(&ms1)
	if got, limit := int(ms1.TotalAlloc-ms0.TotalAlloc), pop*rec*5/4; got > limit {
		t.Fatalf("4096-flow table allocated %d B, want <= %d", got, limit)
	}
	if ms1.Mallocs-ms0.Mallocs > 8 {
		t.Fatalf("4096-flow table took %d allocations, want a handful", ms1.Mallocs-ms0.Mallocs)
	}
	// One more flow grows the table by one chunk: a sixteenth of the
	// population.
	tab.Get(pop, ClassRat, 4)
	if got, want := len(tab.chunks)<<tab.shift, pop+pop/16; got != want {
		t.Fatalf("capacity after growth = %d records, want %d", got, want)
	}
}
