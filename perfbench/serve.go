package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"m5/internal/experiments"
	"m5/internal/obs"
	"m5/internal/policy"
	"m5/internal/serve"
	"m5/internal/sim"
	"m5/internal/tiermem"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// The serve-sec42 query mix. Every query is a sec42 sweep over the same
// three benchmarks (one graph, one dense SPEC, one KVS) at small scale,
// so all queries cost about the same. Warm-up lengths come from three
// levels; the priming sweep warms the middle one, so the first query at
// the upper level extends a checkpoint, the first at the lower level
// misses, and the rest hit. Measured lengths come from two levels, the
// longer in one query of four, which puts the median among the short
// queries and the tail among the long ones. A per-query offset drawn
// from a seeded permutation keeps every query's measured span distinct.
var (
	serveBenches  = []string{"pr", "roms", "redis"}
	serveWarmups  = []int{50_000, 100_000, 150_000}
	servePrimeW   = 100_000
	serveShortAcc = 50_000
	serveLongAcc  = 100_000
)

const (
	serveBlock    = 12   // queries per shuffled block: 3 warm-ups x (3 short + 1 long)
	serveMinBlock = 10   // at least 120 queries, so a p90 tail has 12 samples beyond it
	serveQueryS   = 0.16 // approximate seconds per query; turns --seconds into a query count
	serveJitter   = 8    // accesses per permutation step of the per-query offset
	serveSetups   = 5    // set-ups per run; setup_s is their median
	serveChecked  = 4    // served rows re-run directly and compared byte for byte
)

// serveQuery is one query of the mix.
type serveQuery struct {
	warmup, accesses int
}

// serveQueries derives the run's query sequence from the seed.
func serveQueries(seed int64, seconds int) []serveQuery {
	blocks := max(serveMinBlock, int(float64(seconds)/serveQueryS/serveBlock+0.5))
	n := blocks * serveBlock
	rng := rand.New(rand.NewSource(seed))
	offset := rng.Perm(n)
	qs := make([]serveQuery, 0, n)
	for b := 0; b < blocks; b++ {
		block := make([]serveQuery, 0, serveBlock)
		for _, w := range serveWarmups {
			for k := 0; k < 4; k++ {
				acc := serveShortAcc
				if k == 3 {
					acc = serveLongAcc
				}
				block = append(block, serveQuery{warmup: w, accesses: acc})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		qs = append(qs, block...)
	}
	for i := range qs {
		qs[i].accesses += serveJitter * offset[i]
	}
	return qs
}

// servePrefix is the longest stream prefix any cell of qs consumes: the
// largest warm-up plus the longest measured span forked from it.
func servePrefix(qs []serveQuery) int {
	longest := 0
	for _, q := range qs {
		longest = max(longest, q.accesses)
	}
	return serveWarmups[len(serveWarmups)-1] + longest
}

// serveParams is the Params the server resolves for one query.
func serveParams(seed int64, q serveQuery) experiments.Params {
	return experiments.Params{
		Scale:      workload.ScaleSmall,
		Warmup:     q.warmup,
		Accesses:   q.accesses,
		Points:     10,
		Seed:       seed,
		Benchmarks: serveBenches,
		Parallel:   1,
	}
}

// sweepServer is one in-process m5serve: tape pool, checkpoint tree and
// HTTP server on a loopback port.
type sweepServer struct {
	pool     *tape.Pool
	record   time.Duration // set-up time spent recording tapes
	recorded uint64        // accesses recorded
	hs       *http.Server
	url      string
	served   chan error
	client   *http.Client
}

// startServer records the tapes the queries will open, starts the
// server, and sends the priming sweep.
func startServer(seed int64, qs []serveQuery) (*sweepServer, error) {
	pool := tape.NewPool(0, nil)
	t0 := time.Now()
	if err := recordTapes(pool, serveBenches, workload.ScaleSmall, seed, servePrefix(qs)); err != nil {
		pool.Close()
		return nil, err
	}
	record := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	s := &sweepServer{
		pool:     pool,
		record:   record,
		recorded: uint64(len(serveBenches) * servePrefix(qs)),
		url:      "http://" + ln.Addr().String(),
		// One client connection, kept alive across queries.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: serve.NewServer(serve.Config{
		Defaults: serveParams(seed, serveQuery{warmup: servePrimeW, accesses: serveShortAcc}),
		Tapes:    pool,
		Tree:     serve.NewTree(64),
	})}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := s.sweep(serveQuery{warmup: servePrimeW, accesses: serveShortAcc}); err != nil {
		s.close()
		return nil, fmt.Errorf("priming sweep: %w", err)
	}
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *sweepServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here still lets Serve return below
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("# server:", err)
	}
	s.client.CloseIdleConnections()
	s.pool.Close()
}

// sweepReply is one answered query.
type sweepReply struct {
	latency    time.Duration // request sent to done event read
	firstEvent time.Duration // request sent to first event read
	cellWall   float64       // the row's wall_seconds
	row        json.RawMessage
}

// event is the part of an m5serve NDJSON event the benchmark reads.
type event struct {
	Type        string          `json:"type"`
	Cells       int             `json:"cells"`
	Result      json.RawMessage `json:"result"`
	Error       string          `json:"error"`
	WallSeconds float64         `json:"wall_seconds"`
}

// sweep sends one POST /sweep for q and reads its event stream. A
// non-2xx status, an error event, a missing row or done event is an
// error.
func (s *sweepServer) sweep(q serveQuery) (sweepReply, error) {
	scale := "small"
	body, err := json.Marshal(serve.SweepRequest{
		Harness: "sec42",
		Params:  &serve.ParamsPatch{Scale: &scale, Warmup: &q.warmup, Accesses: &q.accesses},
	})
	if err != nil {
		return sweepReply{}, err
	}
	var rep sweepReply
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return rep, fmt.Errorf("POST /sweep: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		if rep.firstEvent == 0 {
			rep.firstEvent = time.Since(t0)
		}
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return rep, fmt.Errorf("decoding event: %w", err)
		}
		switch ev.Type {
		case "row":
			rep.row = append(json.RawMessage(nil), ev.Result...)
			rep.cellWall = ev.WallSeconds
		case "error":
			return rep, fmt.Errorf("error event: %s", ev.Error)
		case "done":
			rep.latency = time.Since(t0)
			if ev.Cells != 1 || rep.row == nil {
				return rep, fmt.Errorf("done after %d cells, want 1 row", ev.Cells)
			}
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if !done {
		return rep, fmt.Errorf("stream ended without a done event")
	}
	return rep, nil
}

// serveObs reads the server's /obs counters.
func (s *sweepServer) serveObs() (map[string]uint64, error) {
	resp, err := s.client.Get(s.url + "/obs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Serve *obs.Snapshot `json:"serve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /obs: %w", err)
	}
	if body.Serve == nil {
		return nil, fmt.Errorf("/obs has no serve section")
	}
	return body.Serve.Counters, nil
}

// setUpServer runs serveSetups complete set-ups, keeps the last server,
// and returns the set-ups' times.
func setUpServer(seed int64, qs []serveQuery) (*sweepServer, *phase, error) {
	var setups phase
	var s *sweepServer
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			s.close()
			runtime.GC()
		}
		var err error
		setups.measure(func() { s, err = startServer(seed, qs) })
		if err != nil {
			return nil, nil, err
		}
	}
	debug.FreeOSMemory()
	return s, &setups, nil
}

// serveRun is the timed closed loop and its checks.
type serveRun struct {
	replies []sweepReply
	errs    []error
	timed   phase
	obs0    map[string]uint64
	obs1    map[string]uint64
}

// runQueries sends qs one after another over one connection.
func runQueries(s *sweepServer, qs []serveQuery) (*serveRun, error) {
	r := &serveRun{replies: make([]sweepReply, len(qs)), errs: make([]error, len(qs))}
	var err error
	if r.obs0, err = s.serveObs(); err != nil {
		return nil, err
	}
	for b := 0; b < len(qs); b += serveBlock {
		r.timed.measure(func() {
			for i := b; i < b+serveBlock; i++ {
				r.replies[i], r.errs[i] = s.sweep(qs[i])
			}
		})
	}
	if r.obs1, err = s.serveObs(); err != nil {
		return nil, err
	}
	return r, nil
}

// check applies the serve output checks: the tree served one warm
// checkpoint per benchmark per query (its forks, which the server counts
// as hits + misses + extends, equal queries x benchmarks),
// the server counted no errors or rejections, and a seeded subset of
// rows is byte-identical to a direct RunHarness of the same cell.
func (r *serveRun) check(out *outcome, s *sweepServer, seed int64, qs []serveQuery) {
	d := func(k string) uint64 { return r.obs1[k] - r.obs0[k] }
	forks := d("serve.checkpoint.forks")
	if want := uint64(len(qs) * len(serveBenches)); forks != want {
		out.problem("tree served %d warm checkpoints for %d queries x %d benchmarks", forks, len(qs), len(serveBenches))
	}
	if e, rj := r.obs1["serve.errors"], r.obs1["serve.rejected"]; e != 0 || rj != 0 {
		out.problem("server counted %d errors and %d rejections", e, rj)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e4e))
	for _, i := range rng.Perm(len(qs))[:serveChecked] {
		if r.errs[i] != nil {
			continue
		}
		p := serveParams(seed, qs[i])
		p.Tapes = s.pool
		res, err := experiments.RunHarness("sec42", p)
		if err != nil {
			r.errs[i] = fmt.Errorf("direct run: %w", err)
			continue
		}
		if direct := mustJSON(res); direct != string(r.replies[i].row) {
			r.errs[i] = fmt.Errorf("served row differs from a direct run:\n got %s\nwant %s", r.replies[i].row, direct)
		}
	}
	for i, err := range r.errs {
		out.op(fmt.Sprintf("query %d %+v", i, qs[i]), err)
	}
}

// blockRates returns, per timed block of queries, the accesses its cells
// simulated per CPU second of the block: each query runs every solution's
// measured span on every benchmark, from warm state the tree supplies.
func (r *serveRun) blockRates(qs []serveQuery) []float64 {
	rates := make([]float64, len(r.timed.cpus))
	for b, cpu := range r.timed.cpus {
		n := 0
		for _, q := range qs[b*serveBlock : (b+1)*serveBlock] {
			n += len(serveBenches) * len(sec42Solutions) * q.accesses
		}
		rates[b] = float64(n) / cpu
	}
	return rates
}

// reportLatency prints the query latency median and tail with a latency
// dump: as the serve layer's metrics in a traced run, as notes otherwise.
// Too few answered queries for a tail fail the run's checks.
func (r *serveRun) reportLatency(out *outcome, traced bool) {
	lat := r.latenciesMs()
	t, ok := tailOf(lat)
	if !ok {
		out.problem("%d answered queries are too few for a tail", len(lat))
	}
	if traced {
		out.set("serve.query_p50_ms", median(lat), "ms")
		out.set("serve.query_tail_ms", t.Value, "ms")
	} else {
		out.notef("query p50 %.3f ms, tail %.3f ms", median(lat), t.Value)
	}
	out.notef("query tail is the %s; latency deciles (ms): %s", t, deciles(lat))
}

// latenciesMs returns the answered queries' latencies in ms.
func (r *serveRun) latenciesMs() []float64 {
	var ms []float64
	for i, rep := range r.replies {
		if r.errs[i] == nil {
			ms = append(ms, durMs(rep.latency))
		}
	}
	return ms
}

func runServe(o opts) (*outcome, error) {
	out := newOutcome()
	probe0 := hostProbe()
	qs := serveQueries(o.seed, o.seconds)
	s, setups, err := setUpServer(o.seed, qs)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r, err := runQueries(s, qs)
	if err != nil {
		return nil, err
	}
	rss := rusage().maxRSS
	r.check(out, s, o.seed, qs)

	out.set("setup_s", median(setups.cpus), "s")
	out.set("cpu_s", r.timed.cpu(), "s")
	out.set("maccess_per_cpu_s", median(r.blockRates(qs))/1e6, "M/s")
	out.set("peak_rss_mb", mb(rss), "MB")
	out.notef("timed phase: wall %.3fs for %.3fs CPU", r.timed.wall(), r.timed.cpu())
	r.reportLatency(out, false)
	out.notef("setup_s is the median CPU time of %d set-ups (record tapes, start the server, priming sweep); median wall %.3fs",
		serveSetups, median(setups.walls))
	out.notef("host.ref_loop_ms before %.2f after %.2f", probe0, hostProbe())
	return out, nil
}

// checkpointTimes collects the traced checkpoint layer's spans.
type checkpointTimes struct {
	checkpointMs, forkMs, footprintMB []float64
}

// sec42Solutions are the four forks sec42 measures from one warm
// checkpoint: no daemon, then ANB, DAMON and M5 in profile mode.
var sec42Solutions = []string{"", "anb", "damon", "m5-hpt"}

// sec42Daemon builds a sec42 solution's profiling daemon for r; its
// decision counters go to reg when reg is non-nil.
func sec42Daemon(r *sim.Runner, sol string, footPages int, reg *obs.Registry) (tiermem.Policy, error) {
	return policy.New(sol, policy.Env{
		Sys:            r.Sys,
		Ctrl:           r.Ctrl,
		FootPages:      footPages,
		HotListCap:     max(8, footPages/16),
		AttachMissSink: r.AttachMissSink,
		Metrics:        reg.Scope("policy"),
	})
}

// sec42Cells rebuilds the sec42 cells of queries qs from public calls:
// for each benchmark, warm a bare runner carrying an HPT, checkpoint it,
// fork it once per solution, install that solution's profiling daemon and
// run the measured span. It returns each fork's Result as JSON.
func sec42Cells(pool *tape.Pool, seed int64, qs []serveQuery, sp *spans, ck *checkpointTimes) ([]string, error) {
	var results []string
	for _, q := range qs {
		cells, err := sec42Query(pool, seed, q, sp, ck)
		if err != nil {
			return nil, err
		}
		results = append(results, cells...)
	}
	return results, nil
}

func sec42Query(pool *tape.Pool, seed int64, q serveQuery, sp *spans, ck *checkpointTimes) ([]string, error) {
	var results []string
	for _, bench := range serveBenches {
		wl, err := openCellStream(pool, bench, workload.ScaleSmall, seed, sp)
		if err != nil {
			return nil, err
		}
		r, err := sim.NewRunner(sim.Config{Workload: wl, HPT: policy.DefaultHPT()})
		if err != nil {
			wl.Close()
			return nil, err
		}
		cellRun(r, q.warmup, sp)
		t0 := time.Now()
		cp, err := r.Checkpoint()
		cpDur := time.Since(t0)
		r.Close()
		if err != nil {
			return nil, err
		}
		footPages := int(cp.Footprint() / 4096)
		for _, sol := range sec42Solutions {
			t0 := time.Now()
			f, err := cp.Fork()
			if err != nil {
				return nil, err
			}
			if ck != nil {
				ck.forkMs = append(ck.forkMs, durMs(time.Since(t0)))
			}
			if sol != "" {
				d, err := sec42Daemon(f, sol, footPages, nil)
				if err != nil {
					f.Close()
					return nil, err
				}
				setDaemon(f, d, sp)
			}
			results = append(results, mustJSON(cellRun(f, q.accesses, sp)))
			f.Close()
		}
		if ck != nil {
			ck.checkpointMs = append(ck.checkpointMs, durMs(cpDur))
			ck.footprintMB = append(ck.footprintMB, float64(cp.Footprint())/1e6)
		}
	}
	return results, nil
}

// sec42Counters runs the sec42 cells of queries qs once more without
// checkpoints: each solution on its own runner, warmed from scratch and
// carrying an obs registry (a runner with one cannot checkpoint). It
// returns the merged per-layer counters and each cell's Result, less its
// obs, as JSON; a fork is byte-identical to a fresh warm-up, so these
// equal sec42Cells' Results.
func sec42Counters(pool *tape.Pool, seed int64, qs []serveQuery) (*obs.Snapshot, []string, error) {
	var snaps []*obs.Snapshot
	var results []string
	for _, q := range qs {
		for _, bench := range serveBenches {
			for _, sol := range sec42Solutions {
				wl, err := pool.Open(bench, workload.ScaleSmall, seed)
				if err != nil {
					return nil, nil, err
				}
				reg := obs.New()
				r, err := sim.NewRunner(sim.Config{Workload: wl, HPT: policy.DefaultHPT(), Metrics: reg})
				if err != nil {
					wl.Close()
					return nil, nil, err
				}
				r.Run(q.warmup)
				if sol != "" {
					d, err := sec42Daemon(r, sol, int(wl.Footprint()/4096), reg)
					if err != nil {
						r.Close()
						return nil, nil, err
					}
					r.SetDaemon(d)
				}
				res := r.Run(q.accesses)
				r.Close()
				snaps = append(snaps, res.Obs)
				res.Obs = nil
				results = append(results, mustJSON(res))
			}
		}
	}
	return obs.MergeAll(snaps), results, nil
}

// traceServe is the traced run of serve-sec42: one set-up, the same
// closed loop with per-query event timing, then one block of queries'
// sec42 cells rebuilt from public calls untraced, traced, and warmed from
// scratch with obs counters (all three Results must match), and the
// layer ladder over the served tapes.
func traceServe(o opts) (*outcome, error) {
	out := newOutcome()
	probe0 := hostProbe()
	qs := serveQueries(o.seed, o.seconds)
	s, err := startServer(o.seed, qs)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r, err := runQueries(s, qs)
	if err != nil {
		return nil, err
	}
	r.check(out, s, o.seed, qs)

	var first, over, cell []float64
	for i, rep := range r.replies {
		if r.errs[i] == nil {
			first = append(first, durMs(rep.firstEvent))
			cell = append(cell, rep.cellWall*1e3)
			over = append(over, durMs(rep.latency)-rep.cellWall*1e3)
		}
	}
	r.reportLatency(out, true)
	out.set("serve.first_event_ms_p50", median(first), "ms")
	out.set("serve.cell_ms_p50", median(cell), "ms")
	out.set("serve.overhead_ms_p50", median(over), "ms")
	d := func(k string) float64 { return float64(r.obs1[k] - r.obs0[k]) }
	for _, k := range []string{"hits", "extends", "misses", "evictions"} {
		out.set("serve.checkpoint."+k, d("serve.checkpoint."+k), "count")
	}
	out.set("serve.checkpoint.hit_share", d("serve.checkpoint.hits")/d("serve.checkpoint.forks"), "ratio")
	out.set("serve.errors", float64(r.obs1["serve.errors"]), "count")
	out.set("serve.rejected", float64(r.obs1["serve.rejected"]), "count")

	// The first block of queries: every warm-up level, short and long
	// spans, and enough daemon ticks for a tick tail.
	rebuilt := qs[:serveBlock]
	var plain, traced phase
	var a, b []string
	plain.measure(func() { a, err = sec42Cells(s.pool, o.seed, rebuilt, nil, nil) })
	out.op("untraced sec42 cells", err)
	if err != nil {
		return out, nil
	}
	sp := &spans{}
	var ck checkpointTimes
	traced.measure(func() { b, err = sec42Cells(s.pool, o.seed, rebuilt, sp, &ck) })
	out.op("traced sec42 cells", err)
	if err != nil {
		return out, nil
	}
	if mustJSON(a) != mustJSON(b) {
		out.problem("traced sec42 cells differ from untraced ones:\n traced %v\nuntraced %v", b, a)
	}
	counters, c, err := sec42Counters(s.pool, o.seed, rebuilt)
	out.op("sec42 cells warmed with counters", err)
	if err != nil {
		return out, nil
	}
	if mustJSON(c) != mustJSON(a) {
		out.problem("sec42 cells warmed from scratch differ from forked ones:\n fresh %v\nforked %v", c, a)
	}
	reportSpans(out, sp, sp.genN+sp.skipN)
	reportObs(out, counters)
	out.unreached(sampleLayer...)
	out.set("sim.checkpoint_ms", median(ck.checkpointMs), "ms")
	out.set("sim.fork_ms", median(ck.forkMs), "ms")
	out.set("sim.checkpoint_mb", median(ck.footprintMB), "MB")

	var l ladder
	for _, bench := range serveBenches {
		if err := l.run(s.pool, bench, workload.ScaleSmall, o.seed, servePrefix(qs)); err != nil {
			return nil, err
		}
	}
	l.report(out)
	reportPool(out, s.pool, s.record, s.recorded)
	out.set("trace.overhead_pct", 100*(traced.cpu()/plain.cpu()-1), "%")
	out.set("host.ref_loop_ms", probe0, "ms")
	out.set("host.ref_loop_after_ms", hostProbe(), "ms")
	return out, nil
}
