package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"m5/internal/experiments"
	"m5/internal/workload"

	"context"
)

// The block harness parks until released, so admission-control tests can
// hold a query in flight deterministically. It lives only in this test
// binary's registry.
var (
	blockStarted = make(chan struct{}, 16)
	blockRelease = make(chan struct{})
	releaseOnce  sync.Once
)

func init() {
	experiments.Register(experiments.Harness{
		Name:  "test-block",
		Title: "test: park until released",
		Run: func(experiments.Params) (*experiments.Result, error) {
			blockStarted <- struct{}{}
			<-blockRelease
			return &experiments.Result{Notes: []string{"released"}}, nil
		},
	})
}

func serveDefaults() experiments.Params {
	return experiments.Params{
		Scale:    workload.ScaleTiny,
		Warmup:   4_000,
		Accesses: 20_000,
		Points:   3,
		Seed:     1,
	}
}

// postSweep posts a sweep body and decodes the NDJSON stream.
func postSweep(t *testing.T, ts *httptest.Server, body string) []sweepEvent {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("sweep status %d: %v", resp.StatusCode, e)
	}
	var evs []sweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("decoding event %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 2 || evs[0].Type != "start" || evs[len(evs)-1].Type != "done" {
		t.Fatalf("stream must open with start and close with done, got %+v", evs)
	}
	return evs
}

// rows filters the row events of a stream.
func rows(evs []sweepEvent) []sweepEvent {
	var out []sweepEvent
	for _, ev := range evs {
		if ev.Type == "row" {
			out = append(out, ev)
		}
	}
	return out
}

func marshal(t *testing.T, v interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepMatchesDirectHarness pins the equivalence contract: a sweep
// row's Result is byte-identical (as canonical JSON, including the obs
// snapshot) to calling the same harness directly with the same Params.
func TestSweepMatchesDirectHarness(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	evs := postSweep(t, ts, `{"harness":"fig9","params":{"benchmarks":["lib."],"collect_obs":true}}`)
	rs := rows(evs)
	if len(rs) != 1 {
		t.Fatalf("got %d rows, want 1 (events: %+v)", len(rs), evs)
	}

	p := serveDefaults()
	p.Benchmarks = []string{"lib."}
	p.CollectObs = true
	direct, err := experiments.RunHarness("fig9", p)
	if err != nil {
		t.Fatal(err)
	}
	got, want := marshal(t, rs[0].Result), marshal(t, direct)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep row diverged from direct run:\nserve  %s\ndirect %s", got, want)
	}
	if rs[0].Result.Obs == nil {
		t.Fatal("collect_obs row carries no obs snapshot")
	}
}

// TestCheckpointTreeReuse runs the same warm-heavy sweep twice against a
// shared tree: the second query must hit cached checkpoints, and both
// queries' rows must stay byte-identical to a cold direct run.
func TestCheckpointTreeReuse(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults(), Tree: NewTree(16)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	p := serveDefaults()
	p.Benchmarks = []string{"lib."}
	direct, err := experiments.RunHarness("sec42", p)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, direct)

	body := `{"harness":"sec42","params":{"benchmarks":["lib."]}}`
	for i := 0; i < 2; i++ {
		rs := rows(postSweep(t, ts, body))
		if len(rs) != 1 {
			t.Fatalf("query %d: got %d rows, want 1", i, len(rs))
		}
		if got := marshal(t, rs[0].Result); !bytes.Equal(got, want) {
			t.Fatalf("query %d diverged from cold run:\nserve %s\ncold  %s", i, got, want)
		}
	}

	resp, err := http.Get(ts.URL + "/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ob obsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ob); err != nil {
		t.Fatal(err)
	}
	c := ob.Serve.Counters
	if c["serve.checkpoint.hits"] == 0 {
		t.Fatalf("second warm query must hit the tree: %v", c)
	}
	if got := c["serve.checkpoint.hits"] + c["serve.checkpoint.misses"] + c["serve.checkpoint.extends"]; got != c["serve.checkpoint.forks"] {
		t.Fatalf("forks counter %d != hits+misses+extends %d", c["serve.checkpoint.forks"], got)
	}
	if c["serve.queries"] != 2 || c["serve.cells"] != 2 || c["serve.errors"] != 0 {
		t.Fatalf("serve counters = %v, want 2 queries / 2 cells / 0 errors", c)
	}
	if ob.Checkpoint == nil || ob.Checkpoint.Nodes == 0 {
		t.Fatalf("checkpoint stats missing or empty: %+v", ob.Checkpoint)
	}
}

// TestSweepGrid fans one query across a parameter grid and checks each
// row matches a direct run with the correspondingly patched Params.
func TestSweepGrid(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults(), Tree: NewTree(16)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	evs := postSweep(t, ts, `{"harness":"sec42","params":{"benchmarks":["lib."]},"grid":[{"seed":1},{"seed":2}]}`)
	rs := rows(evs)
	if len(rs) != 2 {
		t.Fatalf("got %d rows, want 2", len(rs))
	}
	for i, seed := range []int64{1, 2} {
		p := serveDefaults()
		p.Benchmarks = []string{"lib."}
		p.Seed = seed
		direct, err := experiments.RunHarness("sec42", p)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].Params.Seed != seed {
			t.Fatalf("row %d echoes seed %d, want %d", i, rs[i].Params.Seed, seed)
		}
		if got, want := marshal(t, rs[i].Result), marshal(t, direct); !bytes.Equal(got, want) {
			t.Fatalf("grid cell %d diverged from direct run:\nserve  %s\ndirect %s", i, got, want)
		}
	}
}

// TestSweepDeadline expires a query mid-grid: the stream must report the
// deadline as an error event, never tear the tree, and leave the server
// fully able to answer the same query afterwards.
func TestSweepDeadline(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults(), Tree: NewTree(16)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"harness":"sec42","params":{"benchmarks":["lib."]},"grid":[{"seed":1},{"seed":2},{"seed":3}],"deadline_ms":1}`
	evs := postSweep(t, ts, body)
	var deadlineErr *sweepEvent
	for i := range evs {
		if evs[i].Type == "error" && strings.Contains(evs[i].Error, "deadline") {
			deadlineErr = &evs[i]
		}
	}
	if deadlineErr == nil {
		t.Fatalf("1ms deadline over a 3-cell grid produced no deadline error: %+v", evs)
	}
	if done := evs[len(evs)-1]; done.Cells >= 3 {
		t.Fatalf("done reports %d completed cells, want < 3", done.Cells)
	}

	// The in-flight cell ran to completion, so the tree holds only ready,
	// healthy checkpoints and the same query succeeds warm.
	rs := rows(postSweep(t, ts, `{"harness":"sec42","params":{"benchmarks":["lib."]}}`))
	if len(rs) != 1 {
		t.Fatalf("post-deadline query got %d rows, want 1", len(rs))
	}
	p := serveDefaults()
	p.Benchmarks = []string{"lib."}
	direct, err := experiments.RunHarness("sec42", p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, rs[0].Result), marshal(t, direct); !bytes.Equal(got, want) {
		t.Fatalf("post-deadline warm row diverged from cold run:\nserve %s\ncold  %s", got, want)
	}
}

// TestSweepBadRequests pins the error surface: unknown harnesses carry
// the registry vocabulary, malformed cells name their grid index, unknown
// JSON fields are named, and none admits a query.
func TestSweepBadRequests(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name, body, wantErr string
		status              int
	}{
		{"unknown-harness", `{"harness":"fig99"}`, "fig9", http.StatusNotFound},
		{"bad-scale", `{"harness":"fig9","params":{"scale":"galactic"}}`, "unknown scale", http.StatusBadRequest},
		{"bad-cell", `{"harness":"fig9","grid":[{"accesses":-1}]}`, "cell 0", http.StatusBadRequest},
		{"bad-benchmark", `{"harness":"fig9","params":{"benchmarks":["nope"]}}`, `unknown benchmark "nope"`, http.StatusBadRequest},
		// Removed and misspelled options are named, never silently ignored.
		{"unknown-param", `{"harness":"fig9","params":{"fastforward":true}}`, `unknown field "fastforward"`, http.StatusBadRequest},
		{"unknown-grid-field", `{"harness":"fig9","grid":[{"batch":64}]}`, `unknown field "batch"`, http.StatusBadRequest},
		{"unknown-top-level", `{"harness":"fig9","deadline":5}`, `unknown field "deadline"`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e["error"], tc.wantErr) {
				t.Fatalf("error %q does not mention %q", e["error"], tc.wantErr)
			}
		})
	}
}

// TestHarnessesEndpoint checks /harnesses lists the full registry with
// descriptors and the resolved server defaults.
func TestHarnessesEndpoint(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/harnesses")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Harnesses  []harnessInfo `json:"harnesses"`
		Benchmarks []string      `json:"benchmarks"`
		Defaults   paramsView    `json:"defaults"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Harnesses) != len(experiments.HarnessNames()) {
		t.Fatalf("listed %d harnesses, registry has %d", len(body.Harnesses), len(experiments.HarnessNames()))
	}
	for i, name := range experiments.HarnessNames() {
		if body.Harnesses[i].Name != name || body.Harnesses[i].Title == "" {
			t.Fatalf("harness row %d = %+v, want name %q with a title", i, body.Harnesses[i], name)
		}
	}
	if len(body.Benchmarks) == 0 {
		t.Fatal("no benchmarks listed")
	}
	if body.Defaults.Scale != "tiny" || body.Defaults.Accesses != 20_000 {
		t.Fatalf("defaults echo = %+v", body.Defaults)
	}
}

// TestCapacityAndDrain exercises admission control end to end: 429 at
// capacity, 503 while draining, and Drain() completing only after the
// in-flight query finishes.
func TestCapacityAndDrain(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults(), MaxConcurrent: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Park one query in flight.
	type sweepDone struct {
		evs []sweepEvent
		err error
	}
	firstDone := make(chan sweepDone, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/sweep", "application/json",
			strings.NewReader(`{"harness":"test-block"}`))
		if err != nil {
			firstDone <- sweepDone{err: err}
			return
		}
		defer resp.Body.Close()
		var evs []sweepEvent
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev sweepEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				firstDone <- sweepDone{err: err}
				return
			}
			evs = append(evs, ev)
		}
		firstDone <- sweepDone{evs: evs, err: sc.Err()}
	}()
	select {
	case <-blockStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked query never started")
	}

	// Second query: over capacity.
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(`{"harness":"test-block"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("at capacity: status = %d, want 429", resp.StatusCode)
	}

	// Draining: new queries refused with 503.
	srv.BeginDrain()
	resp, err = http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(`{"harness":"test-block"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status = %d, want 503", resp.StatusCode)
	}

	// Drain must wait for the parked query...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = srv.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("Drain returned before the in-flight query finished")
	}

	// ...and complete once it is released, with the query's stream whole.
	releaseOnce.Do(func() { close(blockRelease) })
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	d := <-firstDone
	if d.err != nil {
		t.Fatal(d.err)
	}
	if len(rows(d.evs)) != 1 || d.evs[len(d.evs)-1].Type != "done" {
		t.Fatalf("drained query stream incomplete: %+v", d.evs)
	}

	var ob obsResponse
	or, err := http.Get(ts.URL + "/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer or.Body.Close()
	if err := json.NewDecoder(or.Body).Decode(&ob); err != nil {
		t.Fatal(err)
	}
	if ob.Serve.Counters["serve.rejected"] != 2 {
		t.Fatalf("serve.rejected = %d, want 2 (one 429 + one 503)", ob.Serve.Counters["serve.rejected"])
	}
	if !ob.Draining || ob.Inflight != 0 {
		t.Fatalf("obs after drain = draining %v inflight %d, want true/0", ob.Draining, ob.Inflight)
	}
}

// TestDeadlineCapped checks client deadlines cannot exceed MaxDeadline.
func TestDeadlineCapped(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults(), MaxDeadline: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Client asks for an hour; the 1ms cap still expires the grid.
	body := fmt.Sprintf(`{"harness":"sec42","params":{"benchmarks":["lib."]},"grid":[{"seed":1},{"seed":2},{"seed":3}],"deadline_ms":%d}`, int(time.Hour/time.Millisecond))
	evs := postSweep(t, ts, body)
	sawDeadline := false
	for _, ev := range evs {
		if ev.Type == "error" && strings.Contains(ev.Error, "deadline") {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatalf("MaxDeadline cap did not expire the query: %+v", evs)
	}
}

// TestSweepSampledQuery covers the sampled fidelity tier through the
// serving path: a sampled sweep row must match a direct sampled run byte
// for byte (sampling is deterministic for a fixed config and seed), its
// obs snapshot must carry the sample.* counters, and /obs must surface
// them aggregated across completed cells.
func TestSweepSampledQuery(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults(), Tree: NewTree(16)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"harness":"fig9","params":{"benchmarks":["lib."],"collect_obs":true,` +
		`"sample":true,"accesses":150000,"sample_window":2048,"sample_stride":6144}}`
	rs := rows(postSweep(t, ts, body))
	if len(rs) != 1 {
		t.Fatalf("got %d rows, want 1", len(rs))
	}
	if !rs[0].Params.Sample || rs[0].Params.SampleWindow != 2048 {
		t.Fatalf("row params do not echo the sampling patch: %+v", rs[0].Params)
	}

	p := serveDefaults()
	p.Benchmarks = []string{"lib."}
	p.CollectObs = true
	p.Sample = true
	p.Accesses = 150_000
	p.SampleWindow = 2048
	p.SampleStride = 6144
	direct, err := experiments.RunHarness("fig9", p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, rs[0].Result), marshal(t, direct); !bytes.Equal(got, want) {
		t.Fatalf("sampled sweep row diverged from direct sampled run:\nserve  %s\ndirect %s", got, want)
	}
	if rs[0].Result.Obs == nil || rs[0].Result.Obs.Counters["sample.windows_measured"] == 0 {
		t.Fatalf("sampled row obs carries no sample.* counters: %+v", rs[0].Result.Obs)
	}

	resp, err := http.Get(ts.URL + "/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ob obsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ob); err != nil {
		t.Fatal(err)
	}
	c := ob.Serve.Counters
	if c["serve.sample.windows_measured"] == 0 || c["serve.sample.accesses_detailed"] == 0 ||
		c["serve.sample.accesses_functional"] == 0 {
		t.Fatalf("/obs does not aggregate sample.* counters: %v", c)
	}
}

// TestTreeSampledIsolation pins the checkpoint-tree rules for the sampled
// tier: a sampled query never shares checkpoints with an exact query of
// the same shape (separate keys, no prefix extension), while a repeated
// identical sampled query hits its own cached nodes and stays
// byte-identical — sampling is deterministic, so exact-key reuse is safe.
func TestTreeSampledIsolation(t *testing.T) {
	srv := NewServer(Config{Defaults: serveDefaults(), Tree: NewTree(32)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	treeStats := func() TreeStats {
		t.Helper()
		return srv.cfg.Tree.Stats()
	}

	exact := `{"harness":"sec42","params":{"benchmarks":["lib."]}}`
	sampled := `{"harness":"sec42","params":{"benchmarks":["lib."],"sample":true}}`
	postSweep(t, ts, exact)
	afterExact := treeStats()
	if afterExact.Misses == 0 {
		t.Fatalf("exact query warmed no checkpoints: %+v", afterExact)
	}

	first := rows(postSweep(t, ts, sampled))
	afterSampled := treeStats()
	if afterSampled.Hits != afterExact.Hits || afterSampled.Extends != afterExact.Extends {
		t.Fatalf("sampled query reused exact checkpoints: exact %+v, sampled %+v", afterExact, afterSampled)
	}
	if afterSampled.Misses <= afterExact.Misses {
		t.Fatalf("sampled query built no checkpoints of its own: %+v", afterSampled)
	}

	second := rows(postSweep(t, ts, sampled))
	if treeStats().Hits == afterSampled.Hits {
		t.Fatalf("repeated sampled query missed its own cached checkpoints: %+v", treeStats())
	}
	if got, want := marshal(t, second[0].Result), marshal(t, first[0].Result); !bytes.Equal(got, want) {
		t.Fatalf("repeated sampled query diverged:\nfirst  %s\nsecond %s", want, got)
	}
}
