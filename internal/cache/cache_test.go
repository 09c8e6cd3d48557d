package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"m5/internal/mem"
	"m5/internal/obs"
)

func tinyHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		L1:          Config{SizeBytes: 1 << 10, Ways: 2}, // 16 lines
		L2:          Config{SizeBytes: 4 << 10, Ways: 4}, // 64 lines
		LLCWayBytes: 4 << 10,                             // 4KB per way
		LLCWays:     4,                                   // 16KB LLC
	})
}

func TestLevelBasics(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 512, Ways: 2}) // 8 lines, 4 sets
	if l.Sets() != 4 {
		t.Fatalf("Sets = %d", l.Sets())
	}
	a := mem.PhysAddr(0x1000)
	if l.Lookup(a, false) {
		t.Error("cold lookup should miss")
	}
	l.Fill(a, false)
	if !l.Lookup(a, false) {
		t.Error("filled line should hit")
	}
	if l.Hits() != 1 || l.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", l.Hits(), l.Misses())
	}
}

func TestLevelLRUEviction(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 2 * 64, Ways: 2}) // 1 set, 2 ways
	a := mem.PhysAddr(0)
	b := mem.PhysAddr(64)
	c := mem.PhysAddr(128)
	l.Fill(a, false)
	l.Fill(b, false)
	l.Lookup(a, false) // a is now MRU
	victim, dirty, ok := l.Fill(c, false)
	if !ok {
		t.Fatal("full set should evict")
	}
	if victim != b {
		t.Errorf("victim = %v, want %v (LRU)", victim, b)
	}
	if dirty {
		t.Error("clean victim reported dirty")
	}
	if l.Lookup(b, false) {
		t.Error("evicted line should miss")
	}
}

func TestLevelDirtyEviction(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 64, Ways: 1}) // 1 line
	l.Fill(0, true)                               // dirty
	_, dirty, ok := l.Fill(64, false)
	if !ok || !dirty {
		t.Error("dirty victim should be reported")
	}
}

func TestLevelDirtyOnWriteHit(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 64, Ways: 1})
	l.Fill(0, false)
	l.Lookup(0, true) // write hit dirties the line
	_, dirty, _ := l.Fill(64, false)
	if !dirty {
		t.Error("write hit should dirty the line")
	}
}

func TestLevelInvalidate(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 128, Ways: 2})
	l.Fill(0, true)
	present, dirty := l.Invalidate(0)
	if !present || !dirty {
		t.Error("invalidate should report present dirty line")
	}
	if p, _ := l.Invalidate(0); p {
		t.Error("second invalidate should miss")
	}
}

func TestLevelPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLevel(Config{SizeBytes: 0, Ways: 1})
}

func TestHierarchyColdMissHitsMemory(t *testing.T) {
	h := tinyHierarchy()
	r := h.Access(0x10000, false)
	if r.Level != HitMemory || !r.Fill {
		t.Errorf("cold access = %+v", r)
	}
	if h.DRAMReads() != 1 {
		t.Errorf("DRAMReads = %d", h.DRAMReads())
	}
	// Second access to the same line: L1 hit.
	r = h.Access(0x10000, false)
	if r.Level != HitL1 {
		t.Errorf("warm access level = %v", r.Level)
	}
	if h.DRAMReads() != 1 {
		t.Error("L1 hit should not touch DRAM")
	}
}

func TestHierarchyFiltering(t *testing.T) {
	// A working set that fits in the LLC should stop generating DRAM
	// traffic after the first pass.
	h := tinyHierarchy()
	lines := 64 // 4KB working set << 16KB LLC
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(mem.PhysAddr(i*64), false)
		}
	}
	if h.DRAMReads() != uint64(lines) {
		t.Errorf("DRAMReads = %d, want %d (one per line, first pass only)",
			h.DRAMReads(), lines)
	}
	if h.MPKI() >= 1000 {
		t.Errorf("MPKI = %v", h.MPKI())
	}
}

func TestHierarchyThrashingGeneratesTraffic(t *testing.T) {
	// A working set far larger than the LLC keeps missing.
	h := tinyHierarchy()
	lines := 4096 // 256KB >> 16KB LLC
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(mem.PhysAddr(i*64), false)
		}
	}
	// Every pass should miss nearly everywhere (sequential sweep + LRU).
	if h.DRAMReads() < uint64(2*lines) {
		t.Errorf("DRAMReads = %d, want >= %d", h.DRAMReads(), 2*lines)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	h := tinyHierarchy()
	// Dirty many distinct lines mapping across the LLC, then sweep a
	// larger clean set to force dirty evictions.
	for i := 0; i < 512; i++ {
		h.Access(mem.PhysAddr(i*64), true)
	}
	wbBefore := h.DRAMWrites()
	for i := 512; i < 4096; i++ {
		h.Access(mem.PhysAddr(i*64), false)
	}
	if h.DRAMWrites() <= wbBefore {
		t.Error("sweeping past dirty lines should produce writebacks")
	}
}

func TestWriteAllocate(t *testing.T) {
	h := tinyHierarchy()
	r := h.Access(0x40000, true)
	if r.Level != HitMemory || !r.Fill {
		t.Error("write miss should read-fill (write-allocate)")
	}
	if h.DRAMReads() != 1 {
		t.Errorf("DRAMReads = %d, want 1 (write-allocate read)", h.DRAMReads())
	}
	if h.DRAMWrites() != 0 {
		t.Errorf("DRAMWrites = %d, want 0 until eviction", h.DRAMWrites())
	}
}

func TestCATScalesLLC(t *testing.T) {
	// More CAT ways -> fewer DRAM reads for the same medium working set.
	run := func(ways int) uint64 {
		h := NewHierarchy(HierarchyConfig{
			L1:          Config{SizeBytes: 1 << 10, Ways: 2},
			L2:          Config{SizeBytes: 2 << 10, Ways: 2},
			LLCWayBytes: 8 << 10,
			LLCWays:     ways,
		})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200000; i++ {
			h.Access(mem.PhysAddr(rng.Intn(2048)*64), false)
		}
		return h.DRAMReads()
	}
	small := run(2)  // 16KB LLC
	large := run(16) // 128KB LLC covers the 128KB set
	if large >= small {
		t.Errorf("16-way reads %d >= 2-way reads %d", large, small)
	}
}

func TestHierarchyDefaults(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{})
	if h.LLC().Sets() == 0 || h.L1().Sets() == 0 || h.L2().Sets() == 0 {
		t.Error("defaults should produce non-empty levels")
	}
	if h.Accesses() != 0 {
		t.Error("fresh hierarchy access count")
	}
}

func TestHitLevelString(t *testing.T) {
	for lv, want := range map[HitLevel]string{HitL1: "L1", HitL2: "L2", HitLLC: "LLC", HitMemory: "MEM"} {
		if lv.String() != want {
			t.Errorf("%d.String() = %q", lv, lv.String())
		}
	}
	if HitLevel(9).String() == "" {
		t.Error("unknown level should render")
	}
}

func TestInclusionInvariant(t *testing.T) {
	// After random traffic, any line resident in L1 must also be in LLC
	// (inclusive hierarchy) — verified indirectly: an LLC Lookup for a
	// just-L1-hit line must hit as well.
	h := tinyHierarchy()
	rng := rand.New(rand.NewSource(7))
	addrs := make([]mem.PhysAddr, 64)
	for i := range addrs {
		addrs[i] = mem.PhysAddr(rng.Intn(1024) * 64)
	}
	for i := 0; i < 50000; i++ {
		h.Access(addrs[rng.Intn(len(addrs))], rng.Intn(4) == 0)
	}
	hitsL1 := 0
	for _, a := range addrs {
		if h.L1().Lookup(a, false) {
			hitsL1++
			if !h.LLC().Lookup(a, false) {
				t.Fatalf("line %v in L1 but not in LLC", a)
			}
		}
	}
	if hitsL1 == 0 {
		t.Skip("no L1-resident lines sampled")
	}
}

// TestAccessBatchMatchesAccess pins the batched classify kernel the
// sampled tier's functional loop runs on: AccessBatch must mutate
// hierarchy state exactly as the same stream of sequential Access calls,
// and report each access's level and writebacks as Access would. Streams
// mix random lines with same-line repeats (the kernel's short-circuit)
// across the platform default, a scaled-down shape, and a single-set LLC
// where every fill evicts.
func TestAccessBatchMatchesAccess(t *testing.T) {
	uniform := func(lines int) func(*rand.Rand) int {
		return func(rng *rand.Rand) int { return rng.Intn(lines) }
	}
	cases := []struct {
		name string
		cfg  HierarchyConfig
		line func(*rand.Rand) int // draws the next fresh line address
	}{
		// The default LLC has 65536 sets: a uniform stream this short
		// would never evict, so crowd 64 tags into 4 sets of every level.
		{"default", HierarchyConfig{}, func(rng *rand.Rand) int { return rng.Intn(64)<<16 | rng.Intn(4) }},
		{"scaled", HierarchyConfig{
			L1:          Config{SizeBytes: 8 << 10, Ways: 2},
			L2:          Config{SizeBytes: 32 << 10, Ways: 4},
			LLCWayBytes: 8 << 10,
			LLCWays:     8,
		}, uniform(1 << 16)},
		{"single-set-llc", HierarchyConfig{
			L1:          Config{SizeBytes: 128, Ways: 2},
			L2:          Config{SizeBytes: 256, Ways: 4},
			LLCWayBytes: 64,
			LLCWays:     8,
		}, uniform(1 << 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqReg, batchReg := obs.New(), obs.New()
			seqCfg, batchCfg := tc.cfg, tc.cfg
			seqCfg.Metrics, batchCfg.Metrics = seqReg, batchReg
			seq, batched := NewHierarchy(seqCfg), NewHierarchy(batchCfg)
			if batched.LLC().Sets() != 1 && tc.name == "single-set-llc" {
				t.Fatalf("LLC has %d sets, want 1", batched.LLC().Sets())
			}

			const n = 60_000
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			phys := make([]mem.PhysAddr, n)
			writes := make([]uint64, (n+63)/64)
			for i := range phys {
				line := mem.PhysAddr(tc.line(rng)) << mem.WordShift
				if i > 0 && rng.Intn(3) == 0 {
					line = phys[i-1] &^ (mem.WordSize - 1) // repeat the previous line
				}
				phys[i] = line + mem.PhysAddr(rng.Intn(int(mem.WordSize)))
				if rng.Intn(4) == 0 {
					writes[i>>6] |= 1 << (uint(i) & 63)
				}
			}

			levels := make([]HitLevel, n)
			nwb := make([]int, n)
			var wantWB []mem.PhysAddr
			for i, a := range phys {
				res := seq.Access(a, writes[i>>6]&(1<<(uint(i)&63)) != 0)
				levels[i] = res.Level
				nwb[i] = len(res.Writeback)
				wantWB = append(wantWB, res.Writeback...)
			}

			// Feed the batch kernel in uneven chunks, as the functional
			// loop does at stream and window boundaries. Each chunk gets
			// its own chunk-relative write bitset.
			class := make([]AccessClass, n)
			var gotWB []mem.PhysAddr
			for s := 0; s < n; {
				m := min(1+rng.Intn(2048), n-s)
				w := make([]uint64, (m+63)/64)
				for j := 0; j < m; j++ {
					if writes[(s+j)>>6]&(1<<(uint(s+j)&63)) != 0 {
						w[j>>6] |= 1 << (uint(j) & 63)
					}
				}
				gotWB = batched.AccessBatch(phys[s:s+m], w, class[s:s+m], gotWB)
				s += m
			}

			for i := range phys {
				if class[i].Level() != levels[i] || class[i].Writebacks() != nwb[i] {
					t.Fatalf("access %d (%#x): batch %v/%d writebacks, sequential %v/%d",
						i, phys[i], class[i].Level(), class[i].Writebacks(), levels[i], nwb[i])
				}
			}
			if !reflect.DeepEqual(gotWB, wantWB) {
				t.Errorf("writeback streams differ: batch %d lines, sequential %d", len(gotWB), len(wantWB))
			}
			if len(wantWB) == 0 {
				t.Error("stream produced no writebacks; the test exercises too little")
			}
			type counters struct {
				accesses, reads, writes uint64
				hits, misses            [3]uint64
			}
			count := func(h *Hierarchy) counters {
				c := counters{accesses: h.Accesses(), reads: h.DRAMReads(), writes: h.DRAMWrites()}
				for k, l := range []*Level{h.L1(), h.L2(), h.LLC()} {
					c.hits[k], c.misses[k] = l.Hits(), l.Misses()
				}
				return c
			}
			if got, want := count(batched), count(seq); got != want {
				t.Errorf("counters differ:\n batch      %+v\n sequential %+v", got, want)
			}
			if !reflect.DeepEqual(batched.Snapshot(), seq.Snapshot()) {
				t.Error("tag/LRU state differs after the batch")
			}
			if !reflect.DeepEqual(batchReg.Snapshot(), seqReg.Snapshot()) {
				t.Error("obs counters differ after the batch")
			}
		})
	}
}
