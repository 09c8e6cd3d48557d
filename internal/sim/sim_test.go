package sim

import (
	"testing"

	"m5/internal/baseline"
	m5mgr "m5/internal/m5"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

func newRunner(t *testing.T, bench string, cfg Config) *Runner {
	t.Helper()
	if cfg.Workload == nil {
		cfg.Workload = workload.MustNew(bench, workload.ScaleTiny, 1)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRunnerBasics(t *testing.T) {
	r := newRunner(t, "redis", Config{})
	res := r.Run(200_000)
	if res.Accesses != 200_000 {
		t.Fatalf("Accesses = %d", res.Accesses)
	}
	if res.ElapsedNs == 0 || res.AccessesPerSec == 0 {
		t.Error("time must advance")
	}
	if res.Daemon != "none" {
		t.Errorf("Daemon = %q", res.Daemon)
	}
	// All pages start on CXL, so early DRAM traffic is CXL-only.
	if res.DRAMReads[tiermem.NodeCXL] == 0 {
		t.Error("expected CXL DRAM reads")
	}
	if res.DRAMReads[tiermem.NodeDDR] != 0 {
		t.Error("no DDR reads without migration")
	}
	if res.CXLReadShare() != 1 {
		t.Errorf("CXLReadShare = %v", res.CXLReadShare())
	}
	// Redis carries op markers.
	if res.OpCount == 0 || res.P99OpNs < res.P50OpNs {
		t.Errorf("op latency: count=%d p50=%v p99=%v", res.OpCount, res.P50OpNs, res.P99OpNs)
	}
}

func TestRunnerRequiresWorkload(t *testing.T) {
	if _, err := NewRunner(Config{}); err == nil {
		t.Error("missing workload should error")
	}
}

func TestCacheFiltersTraffic(t *testing.T) {
	r := newRunner(t, "pr", Config{})
	res := r.Run(300_000)
	dram := res.DRAMReads[0] + res.DRAMReads[1]
	if dram == 0 {
		t.Fatal("no DRAM traffic at all")
	}
	if dram >= res.Accesses {
		t.Errorf("cache filtered nothing: %d DRAM reads for %d accesses", dram, res.Accesses)
	}
}

func TestNoMigrationVsM5(t *testing.T) {
	// The headline Figure 9 property in miniature: with a skewed
	// workload, M5 migration beats no migration on elapsed time.
	run := func(withM5 bool) Result {
		wl := workload.MustNew("roms", workload.ScaleTiny, 1)
		r, err := NewRunner(Config{
			Workload: wl,
			HPT:      &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if withM5 {
			mgr := m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly})
			r.SetDaemon(mgr)
		}
		r.Run(500_000) // warm-up: let migration reach steady state
		return r.Run(1_500_000)
	}
	none := run(false)
	withM5 := run(true)
	if withM5.Promotions == 0 {
		t.Fatal("M5 migrated nothing")
	}
	speedup := withM5.Speedup(none)
	if speedup <= 1.0 {
		t.Errorf("M5 speedup = %.3f, want > 1", speedup)
	}
	if withM5.CXLReadShare() >= none.CXLReadShare() {
		t.Error("migration should shift reads to DDR")
	}
}

func TestDaemonInterferenceCostsTime(t *testing.T) {
	// §4.2: identification overhead with migration disabled slows the
	// workload. DAMON in profile mode burns kernel time scanning PTEs.
	run := func(withDaemon bool) Result {
		wl := workload.MustNew("redis", workload.ScaleTiny, 1)
		r, err := NewRunner(Config{Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if withDaemon {
			r.SetDaemon(baseline.NewDAMON(r.Sys, baseline.DAMONConfig{
				PeriodNs: 200_000, AggregationTicks: 4,
			}))
		}
		return r.Run(800_000)
	}
	without := run(false)
	with := run(true)
	if with.KernelNs <= without.KernelNs {
		t.Error("DAMON should consume kernel time")
	}
	if with.ElapsedNs <= without.ElapsedNs {
		t.Error("identification overhead should slow the workload")
	}
	if with.Promotions != 0 {
		t.Error("profiling mode must not migrate")
	}
}

func TestANBEndToEnd(t *testing.T) {
	wl := workload.MustNew("mcf", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetDaemon(baseline.NewANB(r.Sys, baseline.ANBConfig{
		PeriodNs: 500_000, SamplePages: 64, Migrate: true,
	}))
	res := r.Run(2_000_000)
	if res.Promotions == 0 {
		t.Error("ANB should have promoted pages")
	}
	if res.DRAMReads[tiermem.NodeDDR] == 0 {
		t.Error("promoted pages should serve DDR reads")
	}
}

func TestPEBSAttachesAsMissSink(t *testing.T) {
	wl := workload.MustNew("mcf", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := baseline.NewPEBS(r.Sys, baseline.PEBSConfig{SampleRate: 10, Migrate: true})
	r.AttachMissSink(p)
	r.SetDaemon(p)
	res := r.Run(2_000_000)
	if p.Samples() == 0 {
		t.Fatal("PEBS saw no miss stream")
	}
	if res.Promotions == 0 {
		t.Error("PEBS should promote sampled-hot pages")
	}
}

func TestPACSeesOnlyCXLTraffic(t *testing.T) {
	wl := workload.MustNew("redis", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl, EnablePAC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res := r.Run(400_000)
	pacTotal := r.Ctrl.PAC.Total()
	want := res.DRAMReads[tiermem.NodeCXL] + res.DRAMWrites[tiermem.NodeCXL]
	if pacTotal != want {
		t.Errorf("PAC counted %d, want %d (CXL reads+writes)", pacTotal, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		wl := workload.MustNew("cc", workload.ScaleTiny, 7)
		r, err := NewRunner(Config{Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.Run(300_000)
	}
	a, b := run(), run()
	if a.ElapsedNs != b.ElapsedNs || a.DRAMReads != b.DRAMReads {
		t.Errorf("same seed must reproduce identical runs: %+v vs %+v", a, b)
	}
}

// TestHugePageM5Deterministic pins huge-page promotion order: the M5
// promoter must promote 2MB units in a fixed order, because the order
// decides which pages MGLRU demotes once DDR fills. Ranging over a map
// here once made repeated runs of the same seed disagree.
func TestHugePageM5Deterministic(t *testing.T) {
	run := func() Result {
		r := newRunner(t, "redis", Config{
			HugePages: true,
			HPT:       &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 64},
		})
		r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly, HugeDenseMin: 2}))
		r.Run(100_000)
		return r.Run(500_000)
	}
	first := run()
	if first.Promotions == 0 || first.Demotions == 0 {
		t.Fatalf("run promoted %d and demoted %d pages; the test needs both", first.Promotions, first.Demotions)
	}
	for i := 1; i < 5; i++ {
		if got := run(); got.ElapsedNs != first.ElapsedNs {
			t.Fatalf("run %d: ElapsedNs %d, run 0: %d", i, got.ElapsedNs, first.ElapsedNs)
		}
	}
}

func TestScaledCacheClamps(t *testing.T) {
	small := NewScaledCache(1 << 12)
	if small.LLCWayBytes*small.LLCWays < 64<<10 {
		t.Error("LLC should clamp up to 64KB")
	}
	huge := NewScaledCache(1 << 40)
	if huge.LLCWayBytes*huge.LLCWays > 8<<20 {
		t.Error("LLC should clamp down to 8MB")
	}
}
