package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9}, 5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tailOf must sort
	}
	return xs
}

func TestTailOfKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{20, 50, 10, 10},
		{99, 75, 75, 24},
		{100, 90, 90, 10},
		{120, 90, 108, 12},
		{199, 90, 180, 19},
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
	} {
		got, ok := tailOf(seq(c.n))
		if !ok || got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("tailOf(%d samples) = %+v, %v; want p%g = %g with %d beyond", c.n, got, ok, c.pct, c.value, c.beyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("%d samples: only %d beyond the tail", c.n, got.Beyond)
		}
	}
	if got, ok := tailOf(seq(19)); ok {
		t.Errorf("19 samples gave a tail %+v; the median has only 9 beyond", got)
	}
}

func TestTailStringGivesPercentileAndCount(t *testing.T) {
	got, _ := tailOf(seq(120))
	if s := got.String(); s != "p90 of 120 samples (12 beyond)" {
		t.Errorf("String() = %q", s)
	}
}

func TestNameCharacterSet(t *testing.T) {
	for _, ok := range []string{"setup_s", "tape.next_ns_per_access", "serve.checkpoint.hit_share", "9lives", "fig9-exact", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "a%", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"s", "ms", "M/s", "%", "1/s", "count", "ratio"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", "µs", strings.Repeat("a", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

func TestSetRejectsBadNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("set accepted a metric name with a space")
		}
	}()
	newOutcome().set("bad name", 1, "s")
}

// TestBenchmarkFile checks BENCHMARK.json against the metric rules the
// benchmark itself uses: legal names and units, used once, bounded
// end-to-end metrics including setup_s, and workloads this program runs.
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !validName(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		use(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not one this benchmark runs", w.Name)
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		use(m.Name)
		if !validUnit(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range f.PerLayer {
		use(m.Name)
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("run_seconds %d or %d workloads out of range", f.RunSeconds, len(f.Workloads))
	}
}

func TestRelErrPct(t *testing.T) {
	got, err := relErrPct([]float64{1, 2, 4}, []float64{1.1, 2, 3})
	if want := 100 * (0.1 + 0 + 0.25) / 3; err != nil || fmt.Sprintf("%.9f", got) != fmt.Sprintf("%.9f", want) {
		t.Errorf("relErrPct = %v, %v; want %v", got, err, want)
	}
	if _, err := relErrPct([]float64{0}, []float64{1}); err == nil {
		t.Error("a zero exact cell was accepted")
	}
	if _, err := relErrPct([]float64{1}, nil); err == nil {
		t.Error("unpaired cells were accepted")
	}
}

// TestEmitHoldsTheManifest checks that a missing metric, one in another
// unit and one outside the manifest each fail the run's checks, and that
// the JSON line keeps only manifest metrics.
func TestEmitHoldsTheManifest(t *testing.T) {
	defer func(m map[string]string) { manifest = m }(manifest)
	manifest = map[string]string{"a_s": "s", "b_ms": "ms", "c": "count"}
	out := newOutcome()
	out.attempted = 1
	out.set("a_s", 1, "s")
	out.set("b_ms", 2, "s")
	out.set("extra", 3, "count")
	emit(out)
	if len(out.problems) != 3 {
		t.Errorf("problems %q, want one each for c, b_ms and extra", out.problems)
	}
	if _, ok := out.metrics["extra"]; ok {
		t.Error("a metric outside the manifest reached the JSON line")
	}
}

// TestManifestLists checks that BENCHMARK.json loads for both kinds of
// run and that every metric a workload may print as unreached is a
// per-layer metric.
func TestManifestLists(t *testing.T) {
	e2e, err := loadManifest("../BENCHMARK.json", false)
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	layers, err := loadManifest("../BENCHMARK.json", true)
	if err != nil {
		t.Fatal(err)
	}
	if e2e["setup_s"] != "s" || layers["tape.hits"] != "count" {
		t.Errorf("manifests lack setup_s or tape.hits: %v %v", e2e, layers)
	}
	for _, list := range [][]string{sampleLayer, checkpointLayer, serveLayer} {
		for _, n := range list {
			if _, ok := layers[n]; !ok {
				t.Errorf("%s is printed as unreached but is not a per-layer metric", n)
			}
		}
	}
}
