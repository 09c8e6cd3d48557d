package main

import (
	"strconv"
	"testing"

	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// cellCount runs one traced fig9 cell and returns the accesses its obs
// counters say it advanced and the accesses its generator delivered.
func cellCount(t *testing.T, sampled bool) (adv uint64, sp *spans) {
	t.Helper()
	pool := tape.NewPool(0, nil)
	defer pool.Close()
	p := fig9Params(3, pool, sampled)
	p.Warmup, p.Accesses = 100_000, 200_000
	sp = &spans{}
	snap, err := fig9Cell(pool, p, "roms", "m5-hpt", sp)
	if err != nil {
		t.Fatal(err)
	}
	return advanced(snap, sampled), sp
}

func TestAdvancedCountExact(t *testing.T) {
	adv, sp := cellCount(t, false)
	if adv != sp.genN || sp.skipN != 0 {
		t.Errorf("cache counters say %d accesses advanced; the generator delivered %d and skipped %d", adv, sp.genN, sp.skipN)
	}
	if adv < 300_000 || (adv-200_000)%100_000 != 0 {
		t.Errorf("advanced %d is not 200k measured plus whole 100k warm-up chunks", adv)
	}
}

func TestAdvancedCountSampled(t *testing.T) {
	adv, sp := cellCount(t, true)
	if adv != sp.genN+sp.skipN {
		t.Errorf("sample counters say %d accesses advanced; the generator delivered %d and skipped %d", adv, sp.genN, sp.skipN)
	}
	if sp.skipN == 0 {
		t.Error("the sampled cell skipped nothing; the test no longer covers the skip path")
	}
}

func TestCheckAdvanced(t *testing.T) {
	for _, c := range []struct {
		n  uint64
		ok bool
	}{
		{52_100_000, true}, // seed 1's fig9 call
		{36_000_000 + 72*100_000, true},
		{36_000_000 + 72*21*100_000, true},
		{36_000_000 + 71*100_000, false},
		{36_000_000 + 72*21*100_000 + 100_000, false},
		{52_100_001, false},
		{35_999_999, false},
	} {
		if err := checkAdvanced(c.n, fig9Cells); (err == nil) != c.ok {
			t.Errorf("checkAdvanced(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
}

func TestCallSeedsAreDistinct(t *testing.T) {
	if callSeed(1, 0) != 1 {
		t.Error("call 0 must run at the workload seed")
	}
	seen := map[int64]bool{}
	for s := int64(0); s < 64; s++ {
		for i := 0; i < 16; i++ {
			c := callSeed(s, i)
			if seen[c] {
				t.Fatalf("call seed %d repeats", c)
			}
			seen[c] = true
		}
	}
}

func TestServeQueryMix(t *testing.T) {
	qs := serveQueries(7, 20)
	if len(qs) < serveMinBlock*serveBlock || len(qs)%serveBlock != 0 {
		t.Fatalf("%d queries", len(qs))
	}
	long, spans := 0, map[int]bool{}
	for b := 0; b < len(qs); b += serveBlock {
		perWarm := map[int]int{}
		for _, q := range qs[b : b+serveBlock] {
			perWarm[q.warmup]++
			if q.accesses >= serveLongAcc {
				long++
			}
			if spans[q.accesses] {
				t.Errorf("measured span %d repeats", q.accesses)
			}
			spans[q.accesses] = true
		}
		for _, w := range serveWarmups {
			if perWarm[w] != 4 {
				t.Errorf("block %d has %d queries at warm-up %d, want 4", b/serveBlock, perWarm[w], w)
			}
		}
	}
	if long*4 != len(qs) {
		t.Errorf("%d long queries of %d, want one in four", long, len(qs))
	}
	again := serveQueries(7, 20)
	other := serveQueries(8, 20)
	same, differ := true, false
	for i := range qs {
		same = same && qs[i] == again[i]
		differ = differ || qs[i] != other[i]
	}
	if !same || !differ {
		t.Errorf("query mix must repeat for a seed (%v) and change with it (%v)", same, differ)
	}
	if p := servePrefix(qs); p < serveWarmups[2]+serveLongAcc {
		t.Errorf("prefix %d is shorter than the longest cell", p)
	}
}

func TestTraceGenNeedsATapeCursor(t *testing.T) {
	g, err := workload.New("roms", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := traceGen(g, &spans{}); err == nil {
		t.Error("a live catalog generator was wrapped; only tape cursors forward every fast path")
	}
}

func TestRefsLoad(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for seed, c := range r.Calls {
		if len(c.Norms) != 60 || len(c.Exact) != 64 || len(c.Sampled) != 64 {
			t.Errorf("reference for call seed %s is incomplete", seed)
		}
	}
	// The shipped seeds cover every call a fig9 workload makes at the
	// default --seconds, which is what -write-refs records.
	calls := max(fig9Calls(20, false), fig9Calls(20, true))
	for s := int64(refSeedFirst); s <= refSeedLast; s++ {
		for i := 0; i < calls; i++ {
			if _, ok := r.Calls[strconv.FormatInt(callSeed(s, i), 10)]; !ok {
				t.Errorf("no reference for workload seed %d call %d", s, i)
			}
		}
	}
}
