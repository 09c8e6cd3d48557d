// Command m5bench regenerates every table and figure of the paper's
// evaluation as text tables: Figure 3 (access-count ratio of CPU-driven
// solutions), Figure 4 (access sparsity), §4.2 (identification cost),
// Table 4 (tracker silicon cost), Figure 7 (tracker design space),
// Figure 8 (full-system access-count ratio), Figure 9 (end-to-end
// performance), Figure 10 (access-count CDFs), Figure 11 (scalability),
// §5.2 (bandwidth proportionality), and the ablations.
//
// Usage:
//
//	m5bench [-exp all|<harness>] [-scale tiny|small|medium|large]
//	        [-accesses N] [-warmup N] [-benchmarks lib.,pr,...]
//	        [-seed N] [-out csvdir] [-parallel N] [-json report.json]
//	        [-baseline prior.json] [-check]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	        [-tape] [-tapebytes N]
//	        [-sample] [-samplewindow N] [-samplestride N] [-ci F]
//
// The harness vocabulary comes from the experiments registry (-h lists
// it); every harness is a uniform descriptor the batch frontend here,
// the m5serve sweep server, and the Go benchmarks all dispatch through.
//
// By default workload access streams are served from a shared
// record-once/replay-many tape pool (-tape=false disables it); every
// reported number is byte-identical either way, only the wall clock
// moves. -tapebytes bounds the pool's memory.
//
// -sample switches every cell to the SMARTS-style sampled fidelity tier:
// functional warming between detailed measurement windows, elapsed times
// reported as estimates with Student-t confidence intervals (the sample.*
// obs counters carry windows measured, per-tier access splits, and the
// interval width). UNLIKE -tape and -parallel this is statistical, not
// byte-identical — the sample-coverage harness checks the contract.
// -samplewindow / -samplestride override the window geometry; -ci sets a
// relative error budget that stops measuring once the interval is tight
// enough.
//
// With -json, the Figure 9 harness also attaches the merged per-layer
// observability snapshot (cache, DRAM, CXL, mm, policy counters) to its
// report entry, and the report's top level carries the tape pool's own
// tape.* snapshot (bytes, hits, misses, evictions, live_tails); the
// bytes are identical at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"m5/internal/experiments"
	"m5/internal/obs"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment harness to run (all, or a registry name; see -h)")
		scale    = flag.String("scale", "small", "workload scale (tiny, small, medium, large)")
		acc      = flag.Int("accesses", 2_000_000, "measured accesses per run")
		warmup   = flag.Int("warmup", 500_000, "warm-up accesses per run")
		points   = flag.Int("points", 10, "execution points for ratio sampling")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: the paper's twelve)")
		out      = flag.String("out", "", "directory for CSV copies of each table (created if missing)")
		par      = flag.Int("parallel", runtime.NumCPU(), "worker goroutines per harness (1 = serial; output is identical at any setting)")
		jsonOut  = flag.String("json", "", "write a machine-readable report (per-harness wall time + headline metrics + obs snapshot) to this file")
		baseFile = flag.String("baseline", "", "prior -json report to compare per-harness wall clock against")
		check    = flag.Bool("check", false, "with -baseline: exit non-zero if any harness runs >20% slower than the baseline")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
		useTape  = flag.Bool("tape", true, "serve workload streams from a shared record-once/replay-many tape pool (results are byte-identical either way)")
		tapeCap  = flag.Int64("tapebytes", 256<<20, "tape pool byte budget (0 = unbounded); least-recently-used tapes are evicted to stay within it")
		sample   = flag.Bool("sample", false, "run every cell at the SMARTS-style sampled fidelity tier (statistical — results carry Student-t confidence intervals, NOT byte-identical to exact mode)")
		sampWin  = flag.Int("samplewindow", 0, "sampled tier: detailed window length in accesses (0 = simulator default)")
		sampStr  = flag.Int("samplestride", 0, "sampled tier: functional stride between windows in accesses (0 = simulator default)")
		targetCI = flag.Float64("ci", 0, "sampled tier: relative 95% CI half-width budget; once met, the rest of each span runs purely functional (0 = measure every window)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"m5bench regenerates the paper's tables and figures.\n\nUsage:\n  m5bench [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nExperiment harnesses (-exp):\n  %-16s run every harness below, in order\n", "all")
		for _, h := range experiments.Harnesses() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", h.Name, h.Title)
		}
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nBenchmarks:  %s\nScales:      tiny, small, medium, large\n",
			strings.Join(workload.Names(), ", "))
	}
	flag.Parse()
	// The harnesses allocate one large steady-state working set (tapes,
	// page tables, cache arrays) and then churn very little; the default
	// 100% GC target re-walks that set dozens of times per run for no
	// reclaim. A higher target trades a bounded amount of headroom for
	// those wasted cycles. Purely a wall-clock knob: simulation output is
	// GC-schedule independent.
	debug.SetGCPercent(400)
	if *check && *baseFile == "" {
		fatalf("-check requires -baseline")
	}
	var baseline *benchReport
	if *baseFile != "" {
		var err error
		if baseline, err = loadBaseline(*baseFile); err != nil {
			fatalf("loading -baseline: %v", err)
		}
	}
	if *jsonOut != "" {
		report = newReport(*scale, *par, *acc, *warmup, *seed)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("creating -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatalf("creating -memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("writing heap profile: %v", err)
			}
		}()
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatalf("creating -out dir: %v", err)
		}
		csvDir = *out
	}

	p := experiments.Params{
		Warmup:       *warmup,
		Accesses:     *acc,
		Points:       *points,
		Seed:         *seed,
		Parallel:     *par,
		Sample:       *sample,
		SampleWindow: *sampWin,
		SampleStride: *sampStr,
		TargetCI:     *targetCI,
		// The JSON report carries the per-layer observability snapshot.
		CollectObs: *jsonOut != "",
	}
	var err error
	if p.Scale, err = workload.ParseScale(*scale); err != nil {
		fatalf("%v", err)
	}
	if *benches != "" {
		p.Benchmarks = strings.Split(*benches, ",")
	}
	// Reject bad parameters (unknown benchmarks, negative budgets) before
	// any harness spends simulation time; every harness re-validates.
	if err := p.Validate(); err != nil {
		fatalf("%v", err)
	}
	var tapeObs *obs.Registry
	if *useTape {
		// The pool gets a registry of its own: its tape.* metrics must
		// not leak into the per-cell snapshots the JSON report carries,
		// or the report bytes would differ between -tape settings. The
		// -json report instead exposes it as a top-level tape snapshot.
		tapeObs = obs.New()
		p.Tapes = tape.NewPool(uint64(max(*tapeCap, 0)), tapeObs)
		defer func() {
			st := p.Tapes.Stats()
			fmt.Fprintf(os.Stderr,
				"tape pool: %d tapes, %.1f MiB (%d evictions), %d hits / %d misses, %d live tails\n",
				st.Tapes, float64(st.Bytes)/(1<<20), st.Evictions, st.Hits, st.Misses, st.LiveTails)
			p.Tapes.Close()
		}()
	}

	if *exp == "all" {
		for _, name := range experiments.HarnessNames() {
			timed(name, p)
		}
	} else {
		if _, ok := experiments.LookupHarness(*exp); !ok {
			fatalf("unknown experiment %q (all, or one of %v)", *exp, experiments.HarnessNames())
		}
		timed(*exp, p)
	}
	if *jsonOut != "" {
		if tapeObs != nil {
			report.Tape = tapeObs.Snapshot()
		}
		if err := writeReport(*jsonOut); err != nil {
			fatalf("writing -json report: %v", err)
		}
	}
	if baseline != nil {
		if regressed := compareBaseline(os.Stdout, baseline, measured); regressed && *check {
			fatalf("wall-clock regression beyond %.0f%% against %s", 100*regressionTolerance, *baseFile)
		}
	}
}

// timed dispatches one harness through the registry, renders its Result
// (tables to stdout and -out CSVs, note lines, headline metrics and obs
// into the -json report), and records its wall clock.
func timed(name string, p experiments.Params) {
	start := time.Now()
	res, err := experiments.RunHarness(name, p)
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	for _, t := range res.Tables {
		if err := emit(t); err != nil {
			fatalf("%s: %v", name, err)
		}
	}
	for _, note := range res.Notes {
		fmt.Println(note)
	}
	elapsed := time.Since(start)
	fmt.Printf("(%s completed in %v)\n\n", name, elapsed.Round(time.Millisecond))
	measured = append(measured, harnessReport{Name: name, WallSeconds: elapsed.Seconds()})
	if report != nil {
		report.Harnesses = append(report.Harnesses, harnessReport{
			Name:        name,
			WallSeconds: elapsed.Seconds(),
			Metrics:     res.Metrics,
			Obs:         res.Obs,
		})
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "m5bench: "+format+"\n", args...)
	os.Exit(1)
}

// csvDir, when set by -out, receives a CSV copy of every emitted table.
var csvDir string

// emit renders a table to stdout and, when -out is set, to
// <csvDir>/<table name>.csv.
func emit(t *experiments.Table) error {
	t.Render(os.Stdout)
	if csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, t.Name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
