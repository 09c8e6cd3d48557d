package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"

	"m5/internal/experiments"
	"m5/internal/obs"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// The fig9 call shape every BENCH_PR*.json and the roadmap profile use:
// tiny scale, 100k warm-up and 500k measured accesses per cell, twelve
// benchmarks x six configurations.
const (
	fig9Warmup   = 100_000
	fig9Accesses = 500_000
	fig9Cells    = 72
	// fig9MaxChunks bounds the warm-up chunks one cell runs: the harness
	// warms in Warmup-sized chunks, at most 1 + 20 of them, until DDR
	// fills or promotions stop.
	fig9MaxChunks = 21
	// fig9Prefix is the longest stream prefix any cell can consume, so
	// recording every tape to it leaves nothing to record while timed.
	fig9Prefix = fig9MaxChunks*fig9Warmup + fig9Accesses

	// Approximate single-core seconds per call on a shared 2-vCPU x86 VM;
	// they only turn --seconds into a fixed call count.
	fig9ExactCallS   = 7.0
	fig9SampledCallS = 2.2

	// refCacheDir keeps exact references computed for seeds refs/fig9.json
	// does not ship, relative to the checkout root the benchmark runs in.
	refCacheDir = ".bench_build/refcache"
)

// fig9Calls is how many harness calls a run of the given length makes.
func fig9Calls(seconds int, sampled bool) int {
	per := fig9ExactCallS
	if sampled {
		per = fig9SampledCallS
	}
	return max(2, int(math.Round(float64(seconds)/per)))
}

// callSeed derives call i's seed from the workload seed. Call 0 runs at
// the workload seed itself, so seed 1's first call is the shape recorded
// in BENCH_PR8.json; later calls are spaced 2^20 apart, so no two
// (workload seed, call) pairs below that spacing share a stream.
func callSeed(seed int64, i int) int64 { return seed + int64(i)<<20 }

func fig9Params(seed int64, pool *tape.Pool, sampled bool) experiments.Params {
	return experiments.Params{
		Scale:      workload.ScaleTiny,
		Warmup:     fig9Warmup,
		Accesses:   fig9Accesses,
		Points:     10,
		Seed:       seed,
		Benchmarks: workload.Names(),
		Parallel:   1,
		CollectObs: true,
		Tapes:      pool,
		Sample:     sampled,
	}
}

// recordTapes is the set-up of one call: it opens every benchmark's tape
// in pool and reads it to n accesses, so replay never records.
func recordTapes(pool *tape.Pool, benches []string, scale workload.Scale, seed int64, n int) error {
	buf := make([]workload.Access, 1024)
	for _, b := range benches {
		g, err := pool.Open(b, scale, seed)
		if err != nil {
			return fmt.Errorf("recording %s: %w", b, err)
		}
		for got := 0; got < n; {
			k := workload.NextBatch(g, buf[:min(len(buf), n-got)])
			if k == 0 {
				g.Close()
				return fmt.Errorf("recording %s: stream ended after %d accesses", b, got)
			}
			got += k
		}
		g.Close()
	}
	return nil
}

// advanced is the number of accesses a fig9 Result's cells advanced
// through, warm-up included: for exact cells every access lands at
// exactly one cache level or DRAM; for sampled cells it is the detailed
// plus functional accesses (skipped ones are a subset of functional).
func advanced(s *obs.Snapshot, sampled bool) uint64 {
	if s == nil {
		return 0
	}
	c := s.Counters
	if sampled {
		return c["sample.accesses_detailed"] + c["sample.accesses_functional"]
	}
	return c["cache.l1_hits"] + c["cache.l2_hits"] + c["cache.llc_hits"] + c["cache.dram_reads"]
}

// checkAdvanced verifies the seed-independent shape of the advanced
// count: every cell runs its measured span plus a whole number of
// warm-up chunks (at least one, at most fig9MaxChunks).
func checkAdvanced(n uint64, cells int) error {
	measured := uint64(cells * fig9Accesses)
	if n < measured {
		return fmt.Errorf("advanced %d accesses, below the %d measured", n, measured)
	}
	warm := n - measured
	chunks := warm / fig9Warmup
	if warm%fig9Warmup != 0 || chunks < uint64(cells) || chunks > uint64(cells*fig9MaxChunks) {
		return fmt.Errorf("advanced %d accesses: warm-up %d is not %d..%d whole chunks of %d",
			n, warm, cells, cells*fig9MaxChunks, fig9Warmup)
	}
	return nil
}

// digest is the sha256 of a Result's JSON encoding (tables, metrics,
// notes and obs; map keys sorted by encoding/json).
func digest(res *experiments.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a Result is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fig9Norms returns the sixty normalized cells (12 benchmarks x the 5
// plotted configurations) of a fig9 Result, as the table prints them.
func fig9Norms(res *experiments.Result) ([]float64, error) {
	if len(res.Tables) == 0 || len(res.Tables[0].Rows) < 12 {
		return nil, fmt.Errorf("fig9 result has no 12-row table")
	}
	var out []float64
	for _, row := range res.Tables[0].Rows[:12] {
		if len(row) < 6 {
			return nil, fmt.Errorf("fig9 row %v is short", row)
		}
		for _, c := range row[1:6] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				return nil, fmt.Errorf("fig9 cell %q: %w", c, err)
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// relErrPct is the mean |sampled - exact| / exact over paired cells, in
// percent.
func relErrPct(exact, sampled []float64) (float64, error) {
	if len(exact) != len(sampled) || len(exact) == 0 {
		return 0, fmt.Errorf("cannot pair %d exact with %d sampled cells", len(exact), len(sampled))
	}
	sum := 0.0
	for i, e := range exact {
		if e == 0 {
			return 0, fmt.Errorf("exact cell %d is zero", i)
		}
		sum += math.Abs(sampled[i]-e) / e
	}
	return 100 * sum / float64(len(exact)), nil
}

// fig9Call is one timed harness call's output.
type fig9Call struct {
	seed     int64
	res      *experiments.Result
	advanced uint64
}

// runFig9Call records one call's tapes (set-up) and runs the harness
// (timed), then checks the tape pool was not written while timed.
func runFig9Call(seed int64, sampled bool, setup, timed *phase) (call fig9Call, err error) {
	pool := tape.NewPool(0, nil)
	defer pool.Close()
	setup.measure(func() {
		err = recordTapes(pool, workload.Names(), workload.ScaleTiny, seed, fig9Prefix)
	})
	if err != nil {
		return call, err
	}
	before := pool.Stats()
	debug.FreeOSMemory() // collect set-up garbage outside the timed phase

	call.seed = seed
	timed.measure(func() {
		call.res, err = experiments.RunHarness("fig9", fig9Params(seed, pool, sampled))
	})
	if err != nil {
		return call, err
	}
	after := pool.Stats()
	if after.Accesses != before.Accesses || after.Misses != before.Misses || after.LiveTails != 0 || after.Evictions != 0 {
		return call, fmt.Errorf("tape pool changed while timed (set-up under-recorded): %+v -> %+v", before, after)
	}
	call.advanced = advanced(call.res.Obs, sampled)
	return call, nil
}

// checkFig9Call applies the output checks to one call.
func checkFig9Call(c fig9Call, sampled bool, refs *refFile) error {
	if c.res.Obs == nil {
		return fmt.Errorf("result carries no obs snapshot")
	}
	if err := checkAdvanced(c.advanced, fig9Cells); err != nil {
		return err
	}
	if _, err := fig9Norms(c.res); err != nil {
		return err
	}
	return refs.check(c.seed, c.res, sampled)
}

func runFig9(o opts, sampled bool) (*outcome, error) {
	out := newOutcome()
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	probe0 := hostProbe()
	var (
		timed  phase
		setups phase
		rates  []float64 // per call: accesses advanced per CPU second
		calls  []fig9Call
		adv    uint64
	)
	for i := 0; i < fig9Calls(o.seconds, sampled); i++ {
		seed := callSeed(o.seed, i)
		call, err := runFig9Call(seed, sampled, &setups, &timed)
		if err == nil {
			err = checkFig9Call(call, sampled, refs)
		}
		out.op(fmt.Sprintf("fig9 call %d (seed %d)", i, seed), err)
		if call.res != nil {
			calls = append(calls, call)
			adv += call.advanced
			rates = append(rates, float64(call.advanced)/timed.cpus[len(timed.cpus)-1])
		}
		// Release this call's tapes and garbage outside the timed phase,
		// so each call starts from the same heap.
		debug.FreeOSMemory()
	}
	rss := rusage().maxRSS
	out.set("setup_s", median(setups.cpus), "s")
	out.set("cpu_s", timed.cpu(), "s")
	out.set("maccess_per_cpu_s", median(rates)/1e6, "M/s")
	out.set("peak_rss_mb", mb(rss), "MB")
	out.notef("timed phase: wall %.3fs for %.3fs CPU", timed.wall(), timed.cpu())
	out.notef("setup_s is the median CPU time of %d per-call set-ups (recording 12 tapes to %d accesses each); median wall %.3fs",
		len(setups.cpus), fig9Prefix, median(setups.walls))
	out.notef("%d calls advanced %d simulated accesses", len(calls), adv)
	out.notef("host.ref_loop_ms before %.2f after %.2f", probe0, hostProbe())
	return out, nil
}

// sampledError is the mean relative error of the sampled calls' sixty
// normalized cells against the exact tier at the same call seeds.
func sampledError(calls []fig9Call, refs *refFile) (float64, error) {
	var exact, sampled []float64
	for _, c := range calls {
		s, err := fig9Norms(c.res)
		if err != nil {
			return 0, err
		}
		e, err := exactNorms(c.seed, refs)
		if err != nil {
			return 0, err
		}
		exact = append(exact, e...)
		sampled = append(sampled, s...)
	}
	return relErrPct(exact, sampled)
}

// exactNorms returns the exact tier's normalized cells for a call seed:
// from the shipped references, else from the cache directory, else by
// running the exact harness (outside every timed phase) and caching it.
func exactNorms(seed int64, refs *refFile) ([]float64, error) {
	if r, ok := refs.Calls[strconv.FormatInt(seed, 10)]; ok {
		return r.Norms, nil
	}
	path := fmt.Sprintf("%s/fig9-exact-%d.json", refCacheDir, seed)
	if b, err := os.ReadFile(path); err == nil {
		var norms []float64
		if err := json.Unmarshal(b, &norms); err == nil && len(norms) == 60 {
			return norms, nil
		}
	}
	pool := tape.NewPool(0, nil)
	defer pool.Close()
	p := fig9Params(seed, pool, false)
	p.Parallel = 2 // nothing is timed any more
	res, err := experiments.RunHarness("fig9", p)
	if err != nil {
		return nil, fmt.Errorf("exact reference for seed %d: %w", seed, err)
	}
	norms, err := fig9Norms(res)
	if err != nil {
		return nil, err
	}
	if b, err := json.Marshal(norms); err == nil && os.MkdirAll(refCacheDir, 0o755) == nil {
		_ = os.WriteFile(path, b, 0o644) // a cache: a failed write only costs a recomputation
	}
	return norms, nil
}
