package tiermem

import (
	"errors"
	"reflect"
	"testing"

	"m5/internal/mem"
)

func newTestSystem() *System {
	return NewSystem(Config{
		DDRPages: 64,
		CXLPages: 256,
		Cores:    2,
	})
}

func TestCostModelBreakEven(t *testing.T) {
	c := DefaultCosts()
	// §7.2: 54us / (270ns - 100ns) ≈ 318 accesses.
	if got := c.MigrationBreakEvenAccesses(); got != 317 { // integer division of 54000/170
		t.Errorf("break-even = %d, want 317", got)
	}
	zero := CostModel{MigratePageNs: 100}
	if zero.MigrationBreakEvenAccesses() != ^uint64(0) {
		t.Error("no latency gap should mean migration never pays")
	}
}

func TestNodeAllocFree(t *testing.T) {
	n := NewNode(NodeDDR, mem.NewRange(0, 4*mem.PageSize))
	if n.TotalPages() != 4 || n.UsedPages() != 0 || n.FreePages() != 4 {
		t.Fatal("fresh node counts")
	}
	f1, ok := n.Alloc()
	if !ok {
		t.Fatal("alloc failed")
	}
	if n.UsedPages() != 1 || n.FreePages() != 3 {
		t.Error("counts after alloc")
	}
	n.Free(f1)
	if n.UsedPages() != 0 || n.FreePages() != 4 {
		t.Error("counts after free")
	}
	for i := 0; i < 4; i++ {
		if _, ok := n.Alloc(); !ok {
			t.Fatal("alloc within capacity failed")
		}
	}
	if _, ok := n.Alloc(); ok {
		t.Error("alloc past capacity should fail")
	}
}

func TestNodeCgroupLimit(t *testing.T) {
	n := NewNode(NodeDDR, mem.NewRange(0, 10*mem.PageSize))
	n.SetLimit(2)
	if n.Limit() != 2 || n.FreePages() != 2 {
		t.Errorf("Limit=%d FreePages=%d", n.Limit(), n.FreePages())
	}
	n.Alloc()
	n.Alloc()
	if _, ok := n.Alloc(); ok {
		t.Error("alloc past cgroup limit should fail")
	}
	n.SetLimit(0)
	if _, ok := n.Alloc(); !ok {
		t.Error("removing the limit should allow allocation")
	}
}

func TestNodeFreePanicsOutsideSpan(t *testing.T) {
	n := NewNode(NodeDDR, mem.NewRange(0, 4*mem.PageSize))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Free(mem.PFN(999))
}

func TestNodeIDHelpers(t *testing.T) {
	if NodeDDR.Other() != NodeCXL || NodeCXL.Other() != NodeDDR {
		t.Error("Other()")
	}
	if NodeDDR.String() != "ddr" || NodeCXL.String() != "cxl" {
		t.Error("names")
	}
	if NodeID(7).String() == "" {
		t.Error("unknown node should render")
	}
}

func TestPageTable(t *testing.T) {
	pt := NewPageTable()
	first := pt.Extend(3)
	if first != 0 || pt.Len() != 3 {
		t.Fatal("extend")
	}
	second := pt.Extend(2)
	if second != 3 || pt.Len() != 5 {
		t.Fatal("second extend")
	}
	pt.Get(4).Valid = true
	if e, ok := pt.Lookup(4); !ok || !e.Valid {
		t.Error("lookup should see mutation")
	}
	if _, ok := pt.Lookup(99); ok {
		t.Error("out-of-range lookup should be !ok")
	}
	visits := 0
	pt.ForEach(func(VPN, *PTE) bool { visits++; return visits < 2 })
	if visits != 2 {
		t.Errorf("ForEach early stop visits = %d", visits)
	}
}

func TestPageTableGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPageTable().Get(0)
}

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Lookup(1) {
		t.Error("cold lookup should miss")
	}
	tlb.Insert(1)
	if !tlb.Lookup(1) {
		t.Error("inserted entry should hit")
	}
	if tlb.Hits() != 1 || tlb.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", tlb.Hits(), tlb.Misses())
	}
	tlb.Insert(1) // duplicate insert is a no-op
	if tlb.Len() != 1 {
		t.Errorf("Len = %d", tlb.Len())
	}
}

func TestTLBClockEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1)
	tlb.Insert(2)
	tlb.Insert(3) // evicts someone
	if tlb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tlb.Len())
	}
	if !tlb.Lookup(3) {
		t.Error("most recent insert must be resident")
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(5)
	if !tlb.Invalidate(5) {
		t.Error("invalidate should find the entry")
	}
	if tlb.Invalidate(5) {
		t.Error("second invalidate should miss")
	}
	if tlb.Shootdowns() != 1 {
		t.Errorf("Shootdowns = %d", tlb.Shootdowns())
	}
	tlb.Insert(1)
	tlb.Insert(2)
	tlb.Flush()
	if tlb.Len() != 0 || tlb.Lookup(1) {
		t.Error("flush should empty the TLB")
	}
}

// TestTLBRepeatHit pins the memo replay the sampled tier's functional
// kernel uses to skip full translations: RepeatHit is true only for the
// memoized VPN, where it equals a Lookup hit, and once Flush, Invalidate
// or an evicting Insert drops the memo it returns false and mutates
// nothing.
func TestTLBRepeatHit(t *testing.T) {
	type state struct {
		snap     TLBSnapshot
		lastVPN  VPN
		lastSlot int32
	}
	capture := func(tlb *TLB) state { return state{tlb.Snapshot(), tlb.lastVPN, tlb.lastSlot} }
	// refuses checks that RepeatHit(v) returns false and changes no state.
	refuses := func(t *testing.T, tlb *TLB, v VPN) {
		t.Helper()
		before := capture(tlb)
		if tlb.RepeatHit(v) {
			t.Fatalf("RepeatHit(%d) = true, want false", v)
		}
		if after := capture(tlb); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused RepeatHit(%d) mutated the TLB:\n before %+v\n after  %+v", v, before, after)
		}
	}
	// matchesLookup checks that RepeatHit(v) on tlb and Lookup(v) on an
	// identical twin both hit and leave identical state.
	matchesLookup := func(t *testing.T, tlb, twin *TLB, v VPN) {
		t.Helper()
		if !tlb.RepeatHit(v) || !twin.Lookup(v) {
			t.Fatalf("RepeatHit(%d) and Lookup(%d) should both hit", v, v)
		}
		if got, want := capture(tlb), capture(twin); !reflect.DeepEqual(got, want) {
			t.Fatalf("RepeatHit(%d) diverged from Lookup:\n got  %+v\n want %+v", v, got, want)
		}
	}
	// pair builds two TLBs put through the same operations.
	pair := func(ops func(*TLB)) (*TLB, *TLB) {
		a, b := NewTLB(2), NewTLB(2)
		ops(a)
		ops(b)
		return a, b
	}

	t.Run("memoized-only", func(t *testing.T) {
		tlb, twin := pair(func(x *TLB) { x.Insert(1); x.Insert(2) })
		refuses(t, tlb, 1) // resident, but not the memo
		refuses(t, tlb, 3) // absent
		matchesLookup(t, tlb, twin, 2)
		matchesLookup(t, tlb, twin, 2)
		// A Lookup hit moves the memo; RepeatHit follows it.
		tlb.Lookup(1)
		twin.Lookup(1)
		refuses(t, tlb, 2)
		matchesLookup(t, tlb, twin, 1)
	})
	t.Run("flush", func(t *testing.T) {
		tlb := NewTLB(2)
		tlb.Insert(1)
		tlb.Flush()
		refuses(t, tlb, 1)
	})
	t.Run("invalidate", func(t *testing.T) {
		tlb := NewTLB(2)
		tlb.Insert(1)
		tlb.Invalidate(1)
		refuses(t, tlb, 1)
	})
	t.Run("evicting-insert", func(t *testing.T) {
		tlb, twin := pair(func(x *TLB) {
			x.Insert(1)
			x.Insert(2)
			x.Lookup(1) // memo on 1, the clock's next victim
			x.Insert(3) // full TLB: evicts 1
		})
		if tlb.Len() != 2 || tlb.index.get(1) >= 0 {
			t.Fatal("Insert(3) should have evicted VPN 1")
		}
		refuses(t, tlb, 1)
		matchesLookup(t, tlb, twin, 3)
	})
}

func TestTLBDefaultCapacity(t *testing.T) {
	if NewTLB(0).capacity != 1536 {
		t.Error("default capacity")
	}
}

func TestSystemAllocAndTranslate(t *testing.T) {
	s := newTestSystem()
	v, err := s.Alloc(10, NodeCXL)
	if err != nil {
		t.Fatal(err)
	}
	if s.Node(NodeCXL).UsedPages() != 10 {
		t.Error("CXL pages not accounted")
	}
	res := s.Translate(0, v.Addr(), false)
	if !res.TLBMiss {
		t.Error("first access should miss the TLB")
	}
	if res.Node != NodeCXL {
		t.Errorf("node = %v", res.Node)
	}
	if !s.CXLSpan().Contains(res.Phys) {
		t.Error("physical address should land in the CXL span")
	}
	res2 := s.Translate(0, v.Addr()+64, false)
	if res2.TLBMiss {
		t.Error("same page should now hit the TLB")
	}
	// Different core has its own TLB.
	res3 := s.Translate(1, v.Addr(), false)
	if !res3.TLBMiss {
		t.Error("other core should miss")
	}
}

func TestAllocFailsWhenFull(t *testing.T) {
	s := newTestSystem()
	if _, err := s.Alloc(1000, NodeCXL); !errors.Is(err, ErrNoMemory) {
		t.Errorf("err = %v", err)
	}
}

func TestTranslatePanicsOnWildAccess(t *testing.T) {
	s := newTestSystem()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Translate(0, VirtAddr(0), false)
}

func TestAccessedBitAndScan(t *testing.T) {
	s := newTestSystem()
	v, _ := s.Alloc(1, NodeCXL)
	s.Translate(0, v.Addr(), false)
	if !s.ScanPTE(v) {
		t.Error("walked page should have accessed bit set")
	}
	if s.ScanPTE(v) {
		t.Error("scan should clear the accessed bit")
	}
	// Re-access while TLB-resident: no walk, bit stays clear (the DAMON
	// blind spot the paper describes — the bit is set again only on a
	// later TLB miss).
	s.Translate(0, v.Addr(), false)
	if s.ScanPTE(v) {
		t.Error("TLB-hit access must not set the accessed bit")
	}
	// After shootdown, the next access walks again.
	s.UnmapForSampling(v)
	s.Translate(0, v.Addr(), false)
	if !s.ScanPTE(v) {
		t.Error("post-shootdown access should set the bit")
	}
}

func TestHintingFault(t *testing.T) {
	s := newTestSystem()
	v, _ := s.Alloc(1, NodeCXL)
	s.Translate(0, v.Addr(), false)

	var gotVPN VPN = 999
	var gotCore = -1
	s.OnFault(func(core int, v VPN) { gotCore, gotVPN = core, v })

	s.UnmapForSampling(v)
	res := s.Translate(1, v.Addr(), false)
	if !res.Fault || !res.TLBMiss {
		t.Errorf("expected fault: %+v", res)
	}
	if gotVPN != v || gotCore != 1 {
		t.Errorf("hook saw core=%d vpn=%d", gotCore, gotVPN)
	}
	if s.Faults() != 1 {
		t.Errorf("Faults = %d", s.Faults())
	}
	// Page is present again; next access is fault-free.
	if r := s.Translate(1, v.Addr(), false); r.Fault {
		t.Error("second access should not fault")
	}
	if s.KernelNs() == 0 {
		t.Error("fault handling should consume kernel time")
	}
}

func TestMigrate(t *testing.T) {
	s := newTestSystem()
	v, _ := s.Alloc(4, NodeCXL)
	s.Translate(0, v.Addr(), false) // cache the translation

	if err := s.Migrate(v, NodeDDR); err != nil {
		t.Fatal(err)
	}
	if s.NodeOf(v) != NodeDDR {
		t.Error("page should be on DDR")
	}
	if s.Node(NodeDDR).UsedPages() != 1 || s.Node(NodeCXL).UsedPages() != 3 {
		t.Error("node occupancy after migration")
	}
	// Migration must shoot down the cached translation.
	if res := s.Translate(0, v.Addr(), false); !res.TLBMiss {
		t.Error("post-migration access must walk")
	}
	if s.Promotions() != 1 {
		t.Errorf("Promotions = %d", s.Promotions())
	}
	// Migrating to the same node is a no-op.
	if err := s.Migrate(v, NodeDDR); err != nil {
		t.Error(err)
	}
	if s.Promotions() != 1 {
		t.Error("same-node migrate should not count")
	}
}

func TestMigratePinnedRefused(t *testing.T) {
	s := newTestSystem()
	v, _ := s.Alloc(1, NodeCXL)
	s.Pin(v)
	if err := s.Migrate(v, NodeDDR); !errors.Is(err, ErrPinned) {
		t.Errorf("err = %v", err)
	}
	if s.Rejected() != 1 {
		t.Errorf("Rejected = %d", s.Rejected())
	}
}

func TestPromoteWithDemotion(t *testing.T) {
	s := NewSystem(Config{DDRPages: 8, CXLPages: 64, DDRLimitPages: 2, Cores: 1})
	v, _ := s.Alloc(10, NodeCXL)
	// Fill DDR to its cgroup limit.
	if err := s.Promote(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(v + 1); err != nil {
		t.Fatal(err)
	}
	// Touch page v+1 so MGLRU sees it newer; age, then touch makes v colder.
	s.MGLRU().Age()
	s.Translate(0, (v + 1).Addr(), false)

	// Promoting a third page must demote the coldest (v).
	if err := s.Promote(v + 2); err != nil {
		t.Fatal(err)
	}
	if s.NodeOf(v) != NodeCXL {
		t.Error("coldest DDR page should have been demoted")
	}
	if s.NodeOf(v+1) != NodeDDR || s.NodeOf(v+2) != NodeDDR {
		t.Error("hot pages should remain on DDR")
	}
	if s.Demotions() != 1 {
		t.Errorf("Demotions = %d", s.Demotions())
	}
}

func TestPromoteBatch(t *testing.T) {
	s := NewSystem(Config{DDRPages: 16, CXLPages: 64, DDRLimitPages: 4, Cores: 1})
	v, _ := s.Alloc(12, NodeCXL)
	s.Pin(v + 5)
	batch := []VPN{v, v + 1, v + 2, v + 3, v + 4, v + 5}
	ok := s.PromoteBatch(batch)
	// 5 unpinned candidates, DDR holds 4: expect 4 promotions after the
	// batch settles (first 4 fit; the 5th demotes one and takes its place,
	// so 5 promotions happen, with one demotion).
	if ok != 5 {
		t.Errorf("promoted %d, want 5", ok)
	}
	if s.ResidentPages(NodeDDR) != 4 {
		t.Errorf("DDR resident = %d, want 4 (cgroup limit)", s.ResidentPages(NodeDDR))
	}
	if s.Rejected() == 0 {
		t.Error("pinned page should have been rejected")
	}
	// Batch with nothing to do.
	if n := s.PromoteBatch(nil); n != 0 {
		t.Errorf("empty batch promoted %d", n)
	}
}

func TestMGLRUDemoteOrdering(t *testing.T) {
	s := newTestSystem()
	v, _ := s.Alloc(3, NodeDDR)
	g := s.MGLRU()
	// v+0 oldest, v+2 newest.
	g.Age()
	g.Touch(s.PageTable().Get(v + 1))
	g.Age()
	g.Touch(s.PageTable().Get(v + 2))
	got := g.DemoteCandidates(NodeDDR, 3)
	if len(got) != 3 || got[0] != v || got[1] != v+1 || got[2] != v+2 {
		t.Errorf("candidates = %v", got)
	}
	// Pinned pages are never candidates.
	s.Pin(v)
	got = g.DemoteCandidates(NodeDDR, 3)
	if len(got) != 2 || got[0] != v+1 {
		t.Errorf("candidates after pin = %v", got)
	}
	// Count clamps.
	if len(g.DemoteCandidates(NodeDDR, 100)) != 2 {
		t.Error("clamp to available")
	}
}

func TestCountDRAMAccess(t *testing.T) {
	s := newTestSystem()
	vd, _ := s.Alloc(1, NodeDDR)
	vc, _ := s.Alloc(1, NodeCXL)
	pd := s.Translate(0, vd.Addr(), false).Phys
	pc := s.Translate(0, vc.Addr(), false).Phys
	if s.CountDRAMAccess(pd, false) != NodeDDR {
		t.Error("DDR address misattributed")
	}
	if s.CountDRAMAccess(pc, false) != NodeCXL {
		t.Error("CXL address misattributed")
	}
	s.CountDRAMAccess(pc, true)
	if s.Node(NodeDDR).Reads() != 1 || s.Node(NodeCXL).Reads() != 1 || s.Node(NodeCXL).Writes() != 1 {
		t.Error("bandwidth counters")
	}
}

func TestKernelTimeAccounting(t *testing.T) {
	s := newTestSystem()
	v, _ := s.Alloc(2, NodeCXL)
	base := s.KernelNs()
	s.ScanPTE(v)
	if s.KernelNs() <= base {
		t.Error("PTE scan should cost kernel time")
	}
	mid := s.KernelNs()
	s.Migrate(v, NodeDDR)
	if s.KernelNs() < mid+s.Costs().MigratePageNs {
		t.Error("migration should cost at least MigratePageNs")
	}
	s.AddKernelNs(5)
	if s.KernelNs() < mid+s.Costs().MigratePageNs+5 {
		t.Error("AddKernelNs")
	}
}

// TestHotAccountingPathNoAllocs pins the per-access accounting calls
// (bandwidth attribution and kernel-time charging) to 0 allocs/op. The
// m5lint hotpath analyzer proves the same property statically; the
// meta-test in internal/analysis ties annotations and gates together.
func TestHotAccountingPathNoAllocs(t *testing.T) {
	s := newTestSystem()
	v, _ := s.Alloc(1, NodeDDR)
	p := s.Translate(0, v.Addr(), false).Phys
	allocs := testing.AllocsPerRun(10_000, func() {
		s.CountDRAMAccess(p, false)
		s.AddKernelNs(1)
		_ = s.KernelNs()
	})
	if allocs != 0 {
		t.Errorf("hot accounting path allocates %.1f allocs/op; want 0", allocs)
	}
}

func TestSystemPanicsWithoutCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSystem(Config{DDRPages: 0, CXLPages: 1})
}

func TestNodeSpansDisjoint(t *testing.T) {
	s := newTestSystem()
	if s.Node(NodeDDR).Span().Overlaps(s.Node(NodeCXL).Span()) {
		t.Error("tier spans must not overlap")
	}
}
