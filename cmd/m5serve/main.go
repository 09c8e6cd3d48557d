// Command m5serve runs the M5 sweep server: a long-running HTTP/JSON
// frontend over the experiment-harness registry that holds a shared
// byte-budgeted tape pool and a copy-on-write tree of warmed simulator
// checkpoints, so repeated sweep queries fork shared warm state instead
// of re-simulating warmups. Results are byte-identical to cold
// `m5bench` batch runs of the same (harness, Params).
//
// Usage:
//
//	m5serve [-addr :8909] [-parallel N] [-maxconcurrent N]
//	        [-deadline 60s] [-maxdeadline 10m] [-checkpoints N]
//	        [-tapebytes N]
//	        [-scale tiny|small|medium|large] [-accesses N] [-warmup N]
//	        [-points N] [-seed N]
//
// Endpoints:
//
//	GET  /healthz    liveness probe
//	GET  /harnesses  registry listing: names, titles, default benchmarks
//	GET  /obs        serve.* counters, checkpoint-tree and tape stats
//	POST /sweep      run a sweep; streams NDJSON events (start/row/done)
//
// A sweep query names a registered harness plus optional Params
// overrides and a per-cell grid:
//
//	curl -sN localhost:8909/sweep -d '{
//	  "harness": "fig9",
//	  "params": {"scale": "tiny", "warmup": 100000, "accesses": 400000,
//	             "points": 4, "benchmarks": ["lib.", "redis"]},
//	  "grid": [{"seed": 1}, {"seed": 2}]
//	}'
//
// Queries may opt into the SMARTS-style sampled fidelity tier per cell
// ("sample": true, with optional "sample_window" / "sample_stride" /
// "target_ci"): elapsed times come back as estimates with Student-t
// confidence intervals and sample.* obs counters. Sampled cells are
// statistical, not byte-identical — they key their own checkpoint-tree
// entries and never share warm state with exact cells; /obs aggregates
// their serve.sample.* counters.
//
// SIGINT/SIGTERM drains: in-flight queries complete, new ones get 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"m5/internal/experiments"
	"m5/internal/serve"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens connections and stalls cannot
// pin server goroutines. Request bodies are small JSON documents, and
// query run time is bounded separately by the per-query deadline.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr     = flag.String("addr", ":8909", "listen address")
		par      = flag.Int("parallel", runtime.NumCPU(), "default worker goroutines per sweep cell (queries may override)")
		maxConc  = flag.Int("maxconcurrent", 4, "maximum simultaneously running sweep queries; excess requests get 429")
		deadline = flag.Duration("deadline", 60*time.Second, "default per-query deadline when the request names none")
		maxDead  = flag.Duration("maxdeadline", 10*time.Minute, "upper bound on client-requested deadlines")
		ckpts    = flag.Int("checkpoints", 64, "maximum warmed checkpoints retained in the tree (LRU beyond it)")
		tapeCap  = flag.Int64("tapebytes", 256<<20, "tape pool byte budget (0 = unbounded)")
		scale    = flag.String("scale", "small", "default workload scale (tiny, small, medium, large)")
		acc      = flag.Int("accesses", 2_000_000, "default measured accesses per run")
		warmup   = flag.Int("warmup", 500_000, "default warm-up accesses per run")
		points   = flag.Int("points", 10, "default execution points for ratio sampling")
		seed     = flag.Int64("seed", 1, "default deterministic seed")
	)
	flag.Parse()
	// Same steady-state working set rationale as m5bench: the tape pool
	// and checkpoint tree live for the process, so a higher GC target
	// stops re-walking them. Purely a wall-clock knob.
	debug.SetGCPercent(400)

	defaults := experiments.Params{
		Warmup:   *warmup,
		Accesses: *acc,
		Points:   *points,
		Seed:     *seed,
		Parallel: *par,
	}
	var err error
	if defaults.Scale, err = workload.ParseScale(*scale); err != nil {
		fatalf("%v", err)
	}

	// The pool carries no obs registry: the registry plane is single-
	// goroutine by design and the server is concurrent, so /obs reports
	// pool.Stats() instead.
	pool := tape.NewPool(uint64(max(*tapeCap, 0)), nil)
	defer pool.Close()

	srv := serve.NewServer(serve.Config{
		Defaults:        defaults,
		Tapes:           pool,
		Tree:            serve.NewTree(*ckpts),
		MaxConcurrent:   *maxConc,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDead,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Stop admitting sweeps, then let Shutdown wait for in-flight
		// requests (bounded by the largest per-query deadline).
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *maxDead)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "m5serve: listening on %s (%d harnesses, %d workers, %d concurrent queries)\n",
		*addr, len(experiments.HarnessNames()), *par, *maxConc)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	st := pool.Stats()
	fmt.Fprintf(os.Stderr, "m5serve: drained; tape pool served %d hits / %d misses, %.1f MiB\n",
		st.Hits, st.Misses, float64(st.Bytes)/(1<<20))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "m5serve: "+format+"\n", args...)
	os.Exit(1)
}
