package experiments

import (
	"strings"
	"testing"

	"m5/internal/workload"
)

// TestHarnessRegistryVocabulary pins the registered vocabulary and its
// order: registration order is the paper's figure order, which -exp=all
// and the serve frontend's /harnesses listing both follow.
func TestHarnessRegistryVocabulary(t *testing.T) {
	want := []string{
		"table4", "fig3", "fig4", "sec42", "fig7", "fig8", "fig9", "fig10",
		"fig11", "sec52", "ablations", "ext-ifmm", "ext-pebs",
		"ext-contention", "ext-policies", "ext-huge", "ext-phase",
		"sample-coverage",
	}
	got := HarnessNames()
	if len(got) != len(want) {
		t.Fatalf("HarnessNames() = %v (%d entries), want %d", got, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HarnessNames()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	for _, name := range want {
		h, ok := LookupHarness(name)
		if !ok {
			t.Fatalf("LookupHarness(%q) missing", name)
		}
		if h.Name != name || h.Title == "" || h.Run == nil {
			t.Fatalf("harness %q has incomplete descriptor: %+v", name, h)
		}
	}
	if len(Harnesses()) != len(want) {
		t.Fatalf("Harnesses() returned %d descriptors, want %d", len(Harnesses()), len(want))
	}
}

// TestRunHarnessUnknown keeps unknown names loud: the error must carry
// the full vocabulary so frontends print actionable messages.
func TestRunHarnessUnknown(t *testing.T) {
	_, err := RunHarness("fig99", Params{})
	if err == nil {
		t.Fatal("RunHarness(fig99) succeeded, want error")
	}
	if !strings.Contains(err.Error(), "fig99") || !strings.Contains(err.Error(), "fig9") {
		t.Fatalf("error %q does not name the unknown harness and the vocabulary", err)
	}
}

// TestParamsValidate covers the rejection table: negative budgets,
// out-of-range scales, and benchmark names outside the workload catalog.
func TestParamsValidate(t *testing.T) {
	ok := QuickParams()
	cases := []struct {
		name string
		mut  func(Params) Params
		want string // substring of the error; empty = valid
	}{
		{"quick-defaults", func(p Params) Params { return p }, ""},
		{"zero-value", func(Params) Params { return Params{} }, ""},
		{"alias-benchmark", func(p Params) Params { p.Benchmarks = []string{"mcd"}; return p }, ""},
		{"negative-warmup", func(p Params) Params { p.Warmup = -1; return p }, "negative Warmup"},
		{"negative-accesses", func(p Params) Params { p.Accesses = -5; return p }, "negative Accesses"},
		{"negative-points", func(p Params) Params { p.Points = -2; return p }, "negative Points"},
		{"bad-scale", func(p Params) Params { p.Scale = workload.Scale(99); return p }, "unknown scale"},
		{"bad-benchmark", func(p Params) Params { p.Benchmarks = []string{"nope"}; return p }, `unknown benchmark "nope"`},
		{"negative-sample-window", func(p Params) Params { p.SampleWindow = -1; return p }, "negative SampleWindow"},
		{"negative-sample-stride", func(p Params) Params { p.SampleStride = -4; return p }, "negative SampleStride"},
		{"bad-target-ci", func(p Params) Params { p.TargetCI = 1.5; return p }, "TargetCI"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.mut(ok).Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestHarnessesValidateParams checks that every registered harness
// rejects bad Params up front instead of failing deep inside a cell.
func TestHarnessesValidateParams(t *testing.T) {
	bad := QuickParams()
	bad.Accesses = -1
	for _, name := range HarnessNames() {
		if _, err := RunHarness(name, bad); err == nil ||
			!strings.Contains(err.Error(), "negative Accesses") {
			t.Fatalf("harness %q with negative Accesses: err = %v, want validation error", name, err)
		}
	}
}

// TestRunHarnessTable4 runs the one simulation-free harness end to end
// through the registry and checks the Result shape every frontend
// renders: a named table, headline metrics, and a note line.
func TestRunHarnessTable4(t *testing.T) {
	res, err := RunHarness("table4", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || res.Tables[0].Name != "table4" {
		t.Fatalf("table4 tables = %+v, want one table named table4", res.Tables)
	}
	if len(res.Tables[0].Rows) == 0 {
		t.Fatal("table4 returned no rows")
	}
	for _, m := range []string{"ss_cm_area_ratio_2k", "ss_cm_power_ratio_2k", "chip_fraction_32k_pct"} {
		if _, ok := res.Metrics[m]; !ok {
			t.Fatalf("table4 metrics missing %q: %v", m, res.Metrics)
		}
	}
	if len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "headline") {
		t.Fatalf("table4 notes = %v, want one headline note", res.Notes)
	}
}
