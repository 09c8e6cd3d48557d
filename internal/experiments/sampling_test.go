package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// renderRows serializes harness rows for byte-identity comparison; JSON
// (unlike %#v) dereferences the obs.Snapshot pointers Fig9 rows carry.
func renderRows(t *testing.T, rows any) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSampleCoverageQuick runs a reduced equivalence sweep (two seeds, one
// benchmark, the three gate configurations) and checks the statistical
// contract: the exact elapsed time falls inside the sampled estimate's
// declared interval for (almost) every cell, and the estimates track the
// exact values within a loose relative budget. The sweep is deterministic,
// so the thresholds are stable, not flaky.
func TestSampleCoverageQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig9-class cells twice per seed/config")
	}
	p := tinyParams("pr")
	p.Points = 2 // seed count for SampleCoverage
	p.Parallel = 8
	p.SampleWindow = 4096
	p.SampleStride = 12288
	rep, err := SampleCoverage(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Points * 1 * len(SampleCoverageConfigs()); len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.ExactNs == 0 || c.EstimateNs == 0 {
			t.Fatalf("cell %+v has a zero elapsed time", c)
		}
		if c.Windows < 2 {
			t.Fatalf("cell %+v measured %d windows, want >= 2 at this span", c, c.Windows)
		}
		if c.CIHalfNs <= 0 {
			t.Fatalf("cell %+v reports no interval", c)
		}
	}
	if rep.CoverageRate < 0.8 {
		t.Errorf("coverage rate %.2f < 0.8: %+v", rep.CoverageRate, rep.Cells)
	}
	if rep.MeanAbsRelErr > 0.15 {
		t.Errorf("mean |rel err| %.3f > 0.15: %+v", rep.MeanAbsRelErr, rep.Cells)
	}
}

// TestSampleGate is the CI sample-gate body: >= 5 seeds across two
// benchmark families and the three gate configurations at the smoke
// span. Gated behind M5_SAMPLE_GATE=1 because it runs 60 fig9-class
// cells; the quick test above covers the same contract at tier-1 cost.
func TestSampleGate(t *testing.T) {
	if os.Getenv("M5_SAMPLE_GATE") != "1" {
		t.Skip("set M5_SAMPLE_GATE=1 to run the full coverage gate")
	}
	p := QuickParams()
	p.Benchmarks = []string{"pr", "mcf"}
	p.Points = 5 // seeds 1..5
	rep, err := SampleCoverage(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 2 * len(SampleCoverageConfigs()); len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	if rep.CoverageRate < 0.8 {
		t.Errorf("coverage rate %.2f < 0.8: %+v", rep.CoverageRate, rep.Cells)
	}
	if rep.MeanAbsRelErr > 0.08 {
		t.Errorf("mean |rel err| %.3f > 0.08: %+v", rep.MeanAbsRelErr, rep.Cells)
	}
	t.Logf("sample gate: %d/%d covered (%.1f%%), mean |rel err| %.2f%%, mean windows %.1f",
		rep.Covered, len(rep.Cells), 100*rep.CoverageRate, 100*rep.MeanAbsRelErr, rep.MeanWindows)
}

// TestSamplingFieldsInertWithoutSample pins that the sampling knobs do
// nothing unless Sample is set: a fig9 cell run with SampleWindow /
// SampleStride / TargetCI populated but Sample=false is byte-identical to
// one run with the fields zero — the exact-mode byte-identity contract.
func TestSamplingFieldsInertWithoutSample(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fig9 cell twice")
	}
	p := tinyParams("pr")
	p.Accesses = 120_000
	base, err := fig9Run(p, "pr", Fig9M5HPT)
	if err != nil {
		t.Fatal(err)
	}
	p.SampleWindow = 4096
	p.SampleStride = 12288
	p.TargetCI = 0.05
	got, err := fig9Run(p, "pr", Fig9M5HPT)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderRows(t, base), renderRows(t, got); a != b {
		t.Errorf("sampling fields changed an exact-mode cell:\nbase: %s\ngot:  %s", a, b)
	}
}
