package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	m5mgr "m5/internal/m5"
	"m5/internal/obs"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// buildSampled assembles a runner over a tiny workload with the given
// sampling config, optionally armed with the M5 HPT manager so migration
// dynamics are part of what sampling must preserve.
func buildSampled(t *testing.T, bench string, seed int64, smp SamplingConfig, daemon bool, metrics *obs.Registry) *Runner {
	t.Helper()
	gen, err := workload.New(bench, workload.ScaleTiny, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: gen, Sampling: smp, Metrics: metrics}
	if daemon {
		cfg.HPT = &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 128, K: 5}
	}
	r, err := NewRunner(cfg)
	if err != nil {
		gen.Close()
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if daemon {
		r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	}
	return r
}

func TestSamplingConfigValidation(t *testing.T) {
	gen, err := workload.New("roms", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	for _, bad := range []SamplingConfig{
		{Mode: "fast"},
		{Mode: SampleModeSampled, DetailedWindow: -1},
		{Mode: SampleModeSampled, FunctionalStride: -5},
		{Mode: SampleModeSampled, TargetCI: -0.1},
		{Mode: SampleModeSampled, TargetCI: 1},
	} {
		if _, err := NewRunner(Config{Workload: gen, Sampling: bad}); err == nil {
			t.Errorf("NewRunner accepted invalid sampling config %+v", bad)
		}
	}
	r, err := NewRunner(Config{Workload: gen, Sampling: SamplingConfig{Mode: SampleModeSampled}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.cfg.Sampling; got.DetailedWindow != defaultDetailedWindow || got.FunctionalStride != defaultFunctionalStride {
		t.Errorf("defaults not applied: %+v", got)
	}
	// Exact modes must not mark the runner sampled.
	for _, mode := range []string{"", SampleModeExact} {
		r, err := NewRunner(Config{Workload: gen, Sampling: SamplingConfig{Mode: mode}})
		if err != nil {
			t.Fatal(err)
		}
		if r.sampled {
			t.Errorf("mode %q marked runner sampled", mode)
		}
	}
}

// TestSampledDeterminism pins that a sampled run is a pure function of
// config and seed: two identically-configured machines produce identical
// Results (estimate, interval, window counts, obs snapshot included).
func TestSampledDeterminism(t *testing.T) {
	smp := SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 1024, FunctionalStride: 7168, Seed: 42}
	a := buildSampled(t, "pr", 3, smp, true, obs.New())
	b := buildSampled(t, "pr", 3, smp, true, obs.New())
	ra, rb := a.Run(150_000), b.Run(150_000)
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("sampled runs diverged:\n a %+v\n b %+v", ra, rb)
	}
	if ra.Sampling == nil || ra.Sampling.WindowsMeasured == 0 {
		t.Fatalf("sampled run measured no windows: %+v", ra.Sampling)
	}
}

// TestSampledEstimateTracksExact checks the statistical contract on one
// representative machine: the sampled estimate lands near the exact
// elapsed time and carries a sane interval. (The cross-seed CI-coverage
// gate lives in experiments.SampleCoverage; this is the engine-level
// sanity bound.)
func TestSampledEstimateTracksExact(t *testing.T) {
	const warm, n = 100_000, 400_000
	exact := buildSampled(t, "pr", 3, SamplingConfig{}, true, nil)
	sampled := buildSampled(t, "pr", 3, SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 1024, FunctionalStride: 7168}, true, nil)
	// Warm both machines past the first-touch/cold-cache transient, as
	// every harness does before measuring.
	exact.Run(warm)
	sampled.Run(warm)
	re, rs := exact.Run(n), sampled.Run(n)
	if rs.Sampling == nil || rs.Sampling.WindowsMeasured < 2 {
		t.Fatalf("expected >=2 windows, got %+v", rs.Sampling)
	}
	// Primary contract: the exact value lies inside the declared CI.
	diff := math.Abs(float64(rs.ElapsedNs) - float64(re.ElapsedNs))
	if diff > rs.Sampling.CIHalfNs {
		t.Errorf("exact %d outside sampled CI %d ± %.0f", re.ElapsedNs, rs.ElapsedNs, rs.Sampling.CIHalfNs)
	}
	relErr := diff / float64(re.ElapsedNs)
	if relErr > 0.10 {
		t.Errorf("sampled estimate off by %.1f%% (exact %d, sampled %d ± %.0f)",
			relErr*100, re.ElapsedNs, rs.ElapsedNs, rs.Sampling.CIHalfNs)
	}
	if rs.Sampling.EstimateNs != rs.ElapsedNs {
		t.Errorf("EstimateNs %d != ElapsedNs %d", rs.Sampling.EstimateNs, rs.ElapsedNs)
	}
	if rs.Sampling.CIHalfNs <= 0 || rs.Sampling.RelCIHalf <= 0 {
		t.Errorf("degenerate interval: %+v", rs.Sampling)
	}
	if rs.Sampling.Confidence != sampleConfidence {
		t.Errorf("confidence %v, want %v", rs.Sampling.Confidence, sampleConfidence)
	}
	if got := rs.Sampling.AccessesDetailed + rs.Sampling.AccessesFunctional; got != rs.Accesses {
		t.Errorf("tier split %d != span accesses %d", got, rs.Accesses)
	}
	// DRAM traffic counters stay exact counts (not estimates): the
	// functional loop counts every miss. They should be within a few
	// percent of the exact run (divergence comes only from migration
	// timing differences).
	// An absolute floor keeps the bound meaningful when the exact run has
	// (near-)zero DRAM reads — everything L1-resident — where thinning's
	// few stray fills would otherwise make the relative error blow up.
	tot := func(r Result) float64 { return float64(r.DRAMReads[0] + r.DRAMReads[1]) }
	if d := math.Abs(tot(rs) - tot(re)); d > 0.10*tot(re)+512 {
		t.Errorf("DRAM read counts diverged between tiers: sampled %.0f vs exact %.0f", tot(rs), tot(re))
	}
}

// TestSampledShortSpanFallsBackExact pins the short-span escape: a span
// below two periods runs the exact engine and reports zero windows and a
// zero interval, with ElapsedNs equal to a twin exact runner's.
func TestSampledShortSpanFallsBackExact(t *testing.T) {
	smp := SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 8192, FunctionalStride: 57344}
	sampled := buildSampled(t, "roms", 9, smp, false, nil)
	exact := buildSampled(t, "roms", 9, SamplingConfig{}, false, nil)
	const n = 50_000 // < 2*(8192+57344)
	rs, re := sampled.Run(n), exact.Run(n)
	if rs.Sampling == nil || rs.Sampling.Mode != SampleModeSampled {
		t.Fatalf("short sampled span lost its fidelity tag: %+v", rs.Sampling)
	}
	if rs.Sampling.WindowsMeasured != 0 || rs.Sampling.CIHalfNs != 0 || rs.Sampling.AccessesFunctional != 0 {
		t.Errorf("short span should be fully detailed: %+v", rs.Sampling)
	}
	if rs.ElapsedNs != re.ElapsedNs || rs.KernelNs != re.KernelNs {
		t.Errorf("short sampled span diverged from exact: %d/%d vs %d/%d",
			rs.ElapsedNs, rs.KernelNs, re.ElapsedNs, re.KernelNs)
	}
}

// TestSampledTargetCIEarlyStop: with a loose error budget the scheduler
// should stop measuring after the minimum window count and run the rest
// functionally; with no budget it measures every scheduled window.
func TestSampledTargetCIEarlyStop(t *testing.T) {
	const n = 1_500_000
	geo := SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 1024, FunctionalStride: 7168}
	budget := geo
	budget.TargetCI = 0.5
	all := buildSampled(t, "roms", 9, geo, false, nil)
	stop := buildSampled(t, "roms", 9, budget, false, nil)
	ra, rb := all.Run(n), stop.Run(n)
	if ra.Sampling.WindowsMeasured <= rb.Sampling.WindowsMeasured {
		t.Fatalf("early stop measured %d windows, no-budget run %d — expected fewer",
			rb.Sampling.WindowsMeasured, ra.Sampling.WindowsMeasured)
	}
	if rb.Sampling.WindowsMeasured < sampleMinWindows {
		t.Errorf("early stop below the %d-window floor: %d", sampleMinWindows, rb.Sampling.WindowsMeasured)
	}
	if rb.Sampling.RelCIHalf > 0.5 {
		t.Errorf("early stop with interval above budget: %+v", rb.Sampling)
	}
}

// TestSampleOffsetPure pins window placement as a pure function of
// (seed, position) and spread across the period.
func TestSampleOffsetPure(t *testing.T) {
	if sampleOffset(7, 123) != sampleOffset(7, 123) {
		t.Fatal("sampleOffset not deterministic")
	}
	seen := map[uint64]bool{}
	for seed := int64(0); seed < 16; seed++ {
		seen[sampleOffset(seed, 0)%65536] = true
	}
	if len(seen) < 12 {
		t.Errorf("offsets poorly spread: %d distinct of 16 seeds", len(seen))
	}
}

// TestSampledObsCounters: sampled runners expose the sample.* scope and
// its values agree with the Result's SamplingInfo; exact runners must not
// register the scope at all (snapshot byte-identity).
func TestSampledObsCounters(t *testing.T) {
	reg := obs.New()
	smp := SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 1024, FunctionalStride: 7168}
	r := buildSampled(t, "pr", 3, smp, false, reg)
	res := r.Run(200_000)
	snap := res.Obs
	if snap == nil {
		t.Fatal("no obs snapshot")
	}
	want := map[string]uint64{
		"sample.windows_measured":    uint64(res.Sampling.WindowsMeasured),
		"sample.accesses_detailed":   res.Sampling.AccessesDetailed,
		"sample.accesses_functional": res.Sampling.AccessesFunctional,
		"sample.ci_halfwidth_ppm":    uint64(math.Round(res.Sampling.RelCIHalf * 1e6)),
	}
	got := map[string]uint64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sample.") {
			got[name] = v
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "sample.") {
			got[name] = v
		}
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}

	exact := buildSampled(t, "pr", 3, SamplingConfig{}, false, obs.New())
	esnap := exact.Run(50_000).Obs
	for name := range esnap.Counters {
		if strings.HasPrefix(name, "sample.") {
			t.Errorf("exact-mode snapshot leaked %s", name)
		}
	}
	for name := range esnap.Gauges {
		if strings.HasPrefix(name, "sample.") {
			t.Errorf("exact-mode snapshot leaked %s", name)
		}
	}
}

// TestFunctionalStepZeroAlloc pins the functional warming loop at zero
// heap allocations once its scratch is built.
func TestFunctionalStepZeroAlloc(t *testing.T) {
	smp := SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 1024, FunctionalStride: 7168}
	r := buildSampled(t, "roms", 9, smp, false, nil)
	r.smp.est = r.samplePriorNs()
	if r.runFunctionalSpan(4096) != 4096 {
		t.Fatal("warm functional span fell short")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if r.stepFunctional(runnerBatch, 1) == 0 {
			t.Fatal("stream ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Errorf("stepFunctional allocates %.1f per batch, want 0", allocs)
	}
	skipAllocs := testing.AllocsPerRun(50, func() {
		if r.stepSkip(runnerBatch) == 0 {
			t.Fatal("stream ended mid-measurement")
		}
	})
	if skipAllocs != 0 {
		t.Errorf("stepSkip allocates %.1f per batch, want 0", skipAllocs)
	}
}

// TestSampledExactModeUntouched: a runner with Sampling unset runs the
// identical exact engine — Result carries no SamplingInfo.
func TestSampledExactModeUntouched(t *testing.T) {
	r := buildSampled(t, "roms", 9, SamplingConfig{}, false, nil)
	if res := r.Run(30_000); res.Sampling != nil {
		t.Errorf("exact Result carries SamplingInfo: %+v", res.Sampling)
	}
}
