package main

import (
	"fmt"
	"runtime"
	"time"

	"m5/internal/cache"
	"m5/internal/experiments"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/policy"
	"m5/internal/sim"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// spans accumulates the traced run's spans, recorded around calls into
// the simulator's public API from this file: generator calls (tape
// decode and skip), daemon ticks, and Runner.Run.
type spans struct {
	gen, skip, run time.Duration
	genN, skipN    uint64 // accesses the generator calls returned / skipped
	ticks          []float64
	tick           time.Duration
}

// stream is what a tape cursor implements; the traced generator forwards
// all of it, so the engine takes the same path as on an untraced run.
type stream interface {
	workload.BatchGenerator
	workload.ColumnarGenerator
	workload.ColumnarSkipper
	workload.Reopener
	workload.Checkpointer
}

// tracedGen wraps a tape cursor and records a span per generator call.
type tracedGen struct {
	s  stream
	sp *spans
}

var _ stream = (*tracedGen)(nil)

func traceGen(g workload.Generator, sp *spans) (*tracedGen, error) {
	s, ok := g.(stream)
	if !ok {
		return nil, fmt.Errorf("generator %T is not a tape cursor", g)
	}
	return &tracedGen{s: s, sp: sp}, nil
}

func (t *tracedGen) Name() string      { return t.s.Name() }
func (t *tracedGen) Footprint() uint64 { return t.s.Footprint() }
func (t *tracedGen) Close()            { t.s.Close() }

func (t *tracedGen) Next() (workload.Access, bool) {
	t0 := time.Now()
	a, ok := t.s.Next()
	t.sp.gen += time.Since(t0)
	if ok {
		t.sp.genN++
	}
	return a, ok
}

func (t *tracedGen) NextBatch(buf []workload.Access) int {
	t0 := time.Now()
	n := t.s.NextBatch(buf)
	t.sp.gen += time.Since(t0)
	t.sp.genN += uint64(n)
	return n
}

func (t *tracedGen) NextColumns(c *workload.Columns, max int) int {
	t0 := time.Now()
	n := t.s.NextColumns(c, max)
	t.sp.gen += time.Since(t0)
	if n > 0 {
		t.sp.genN += uint64(n)
	}
	return n
}

func (t *tracedGen) SkipColumns(max int) (int, bool) {
	t0 := time.Now()
	n, ops := t.s.SkipColumns(max)
	t.sp.skip += time.Since(t0)
	if n > 0 {
		t.sp.skipN += uint64(n)
	}
	return n, ops
}

func (t *tracedGen) Checkpoint() (workload.Checkpoint, bool) { return t.s.Checkpoint() }

// ReopenAt traces the reopened stream too, so forks record spans.
func (t *tracedGen) ReopenAt(consumed uint64) (workload.Generator, error) {
	g, err := t.s.ReopenAt(consumed)
	if err != nil {
		return nil, err
	}
	return traceGen(g, t.sp)
}

// tracedDaemon records a span per daemon tick.
type tracedDaemon struct {
	d  tiermem.Policy
	sp *spans
}

func (t *tracedDaemon) Name() string               { return t.d.Name() }
func (t *tracedDaemon) PeriodNs() uint64           { return t.d.PeriodNs() }
func (t *tracedDaemon) Stats() tiermem.PolicyStats { return t.d.Stats() }
func (t *tracedDaemon) Tick(nowNs uint64) {
	t0 := time.Now()
	t.d.Tick(nowNs)
	d := time.Since(t0)
	t.sp.tick += d
	t.sp.ticks = append(t.sp.ticks, float64(d.Nanoseconds())/1e3)
}

// cellRun runs n accesses on r inside a Run span (sp may be nil).
func cellRun(r *sim.Runner, n int, sp *spans) sim.Result {
	t0 := time.Now()
	res := r.Run(n)
	if sp != nil {
		sp.run += time.Since(t0)
	}
	return res
}

// openCellStream opens a tape cursor, traced when sp is non-nil.
func openCellStream(pool *tape.Pool, bench string, scale workload.Scale, seed int64, sp *spans) (workload.Generator, error) {
	g, err := pool.Open(bench, scale, seed)
	if err != nil || sp == nil {
		return g, err
	}
	t, err := traceGen(g, sp)
	if err != nil {
		g.Close()
		return nil, err
	}
	return t, nil
}

// setDaemon installs d on r, traced when sp is non-nil.
func setDaemon(r *sim.Runner, d tiermem.Policy, sp *spans) {
	if d != nil && sp != nil {
		d = &tracedDaemon{d: d, sp: sp}
	}
	if d != nil {
		r.SetDaemon(d)
	}
}

// fig9Cell builds one Figure 9 cell from public calls, as the harness
// does, and returns its obs snapshot: the daemon migrates under the DDR
// limit, the runner warms in Warmup-sized chunks until DDR fills or
// promotions stop, then runs the measured span.
func fig9Cell(pool *tape.Pool, p experiments.Params, bench, cfg string, sp *spans) (*obs.Snapshot, error) {
	wl, err := openCellStream(pool, bench, p.Scale, p.Seed, sp)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	simCfg := sim.Config{Workload: wl, Metrics: reg}
	if p.Sample {
		simCfg.Sampling = sim.SamplingConfig{Mode: sim.SampleModeSampled, Seed: p.Seed}
	}
	if policy.NeedsHPT(cfg) {
		simCfg.HPT = policy.DefaultHPT()
	}
	if policy.NeedsHWT(cfg) {
		simCfg.HWT = policy.DefaultHWT()
	}
	r, err := sim.NewRunner(simCfg)
	if err != nil {
		wl.Close()
		return nil, err
	}
	defer r.Close()
	if cfg != string(experiments.Fig9None) {
		d, err := policy.New(cfg, policy.Env{
			Sys:            r.Sys,
			Ctrl:           r.Ctrl,
			FootPages:      int(wl.Footprint() / 4096),
			Migrate:        true,
			AttachMissSink: r.AttachMissSink,
			Metrics:        reg.Scope("policy"),
		})
		if err != nil {
			return nil, err
		}
		setDaemon(r, d, sp)
	}
	cellRun(r, p.Warmup, sp)
	prev := r.Sys.Promotions()
	for i := 0; i < fig9MaxChunks-1; i++ {
		if r.Sys.Node(tiermem.NodeDDR).FreePages() == 0 {
			break
		}
		cellRun(r, p.Warmup, sp)
		if r.Sys.Promotions() == prev {
			break
		}
		prev = r.Sys.Promotions()
	}
	return cellRun(r, p.Accesses, sp).Obs, nil
}

// runFig9Cells runs every cell of a fig9 call in the harness's row-then-
// config order and returns the per-cell snapshots.
func runFig9Cells(pool *tape.Pool, p experiments.Params, sp *spans) ([]*obs.Snapshot, error) {
	var snaps []*obs.Snapshot
	cfgs := append([]experiments.Fig9Config{experiments.Fig9None}, experiments.Fig9Configs()...)
	for _, bench := range p.Benchmarks {
		for _, cfg := range cfgs {
			s, err := fig9Cell(pool, p, bench, string(cfg), sp)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/%s: %w", bench, cfg, err)
			}
			snaps = append(snaps, s)
		}
	}
	return snaps, nil
}

// ladder replays a recorded stream through the layers one at a time,
// timing each per batch: translate (TLB and page walk), the cache
// hierarchy, and the CXL device with its default HPT and HWT trackers.
type ladder struct {
	translate, cache, device time.Duration
	accesses, deviceN        uint64
}

func (l *ladder) run(pool *tape.Pool, bench string, scale workload.Scale, seed int64, n int) error {
	g, err := pool.Open(bench, scale, seed)
	if err != nil {
		return err
	}
	r, err := sim.NewRunner(sim.Config{Workload: g, HPT: policy.DefaultHPT(), HWT: policy.DefaultHWT()})
	if err != nil {
		g.Close()
		return err
	}
	defer r.Close()
	src, err := pool.Open(bench, scale, seed)
	if err != nil {
		return err
	}
	defer src.Close()

	const batch = 1024
	var (
		buf    = make([]workload.Access, batch)
		phys   = make([]mem.PhysAddr, batch)
		missed = make([]bool, batch)
		wbs    []mem.PhysAddr
		dev    []trace.Access
		tr     tiermem.TranslateResult
		base   = r.Base().Addr()
		clock  uint64
	)
	for done := 0; done < n; {
		k := workload.NextBatch(src, buf[:min(batch, n-done)])
		if k == 0 {
			return fmt.Errorf("ladder %s: stream ended after %d accesses", bench, done)
		}
		done += k
		t0 := time.Now()
		for i := 0; i < k; i++ {
			r.Sys.TranslateInto(0, base+tiermem.VirtAddr(buf[i].Offset), buf[i].Write, &tr)
			phys[i] = tr.Phys
		}
		t1 := time.Now()
		wbs = wbs[:0]
		for i := 0; i < k; i++ {
			res := r.Cache.Access(phys[i], buf[i].Write)
			missed[i] = res.Level == cache.HitMemory
			wbs = append(wbs, res.Writeback...)
		}
		t2 := time.Now()
		dev = dev[:0]
		for i := 0; i < k; i++ {
			clock += 50
			if missed[i] && r.Sys.NodeOfAddr(phys[i]) == tiermem.NodeCXL {
				dev = append(dev, trace.Access{Time: clock, Addr: phys[i], Write: buf[i].Write})
			}
		}
		for _, wb := range wbs {
			if r.Sys.NodeOfAddr(wb) == tiermem.NodeCXL {
				dev = append(dev, trace.Access{Time: clock, Addr: wb, Write: true})
			}
		}
		t3 := time.Now()
		for _, a := range dev {
			r.Ctrl.Device.Access(a)
		}
		t4 := time.Now()
		l.translate += t1.Sub(t0)
		l.cache += t2.Sub(t1)
		l.device += t4.Sub(t3)
		l.accesses += uint64(k)
		l.deviceN += uint64(len(dev))
	}
	return nil
}

func (l *ladder) report(out *outcome) {
	out.set("translate.ns_per_access", nsPer(l.translate, l.accesses), "ns")
	out.set("cache.ns_per_access", nsPer(l.cache, l.accesses), "ns")
	out.set("cxl.ns_per_access", nsPer(l.device, l.deviceN), "ns")
	out.notef("ladder: %d accesses through translate and cache, %d through the CXL device", l.accesses, l.deviceN)
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// reportSpans prints the span-derived layer metrics common to every
// workload. adv is the accesses the traced cells advanced. A workload
// that skips nothing prints tape.skip_ns_per_access as 0.
func reportSpans(out *outcome, sp *spans, adv uint64) {
	out.set("sim.run_ns_per_access", nsPer(sp.run, adv), "ns")
	out.set("sim.self_ns_per_access", nsPer(sp.run-sp.gen-sp.skip-sp.tick, adv), "ns")
	out.set("tape.next_ns_per_access", nsPer(sp.gen, sp.genN), "ns")
	out.set("tape.skip_ns_per_access", nsPer(sp.skip, sp.skipN), "ns")
	t, ok := tailOf(sp.ticks)
	if !ok {
		out.problem("%d daemon ticks are too few for a tail", len(sp.ticks))
	}
	out.set("policy.tick_us_p50", median(sp.ticks), "us")
	out.set("policy.tick_us_tail", t.Value, "us")
	out.notef("policy.tick_us_tail is the %s", t)
	out.set("policy.tick_share", float64(sp.tick)/float64(sp.run), "ratio")
}

// reportPool prints the tape layer's counters and encoding density.
func reportPool(out *outcome, pool *tape.Pool, record time.Duration, recorded uint64) {
	st := pool.Stats()
	out.set("tape.record_ns_per_access", nsPer(record, recorded), "ns")
	if st.Accesses > 0 {
		out.set("tape.bytes_per_access", float64(st.Bytes)/float64(st.Accesses), "B")
	}
	out.set("tape.hits", float64(st.Hits), "count")
	out.set("tape.misses", float64(st.Misses), "count")
	out.set("tape.live_tails", float64(st.LiveTails), "count")
	out.set("tape.evictions", float64(st.Evictions), "count")
	if st.LiveTails > 0 {
		out.problem("%d cursors fell back to live generation: set-up under-recorded", st.LiveTails)
	}
}

// reportObs prints the simulated per-layer counters of a merged
// snapshot of the traced cells.
func reportObs(out *outcome, s *obs.Snapshot) {
	for _, name := range []string{
		"mem.walks", "mem.faults", "mem.shootdowns", "mem.promotions", "mem.demotions",
		"cache.l1_hits", "cache.l2_hits", "cache.llc_hits", "cache.dram_reads", "cache.writebacks",
		"cxl.snoop_reads", "cxl.snoop_writes", "cxl.mmio_queries",
		"policy.ticks", "policy.promoted", "policy.nominations", "policy.scans",
	} {
		v, ok := s.Counters[name]
		if !ok {
			out.problem("the traced cells' obs have no counter %s", name)
		}
		out.set(name, float64(v), "count")
	}
	out.set("mem.kernel_ns", float64(s.Gauges["mem.kernel_ns"]), "ns")
}

// Per-layer metrics of layers only some workloads reach; the others print
// them as 0 through outcome.unreached.
var (
	sampleLayer     = []string{"sample.detailed_share", "sample.windows_measured", "sample.ci_halfwidth_ppm", "sample.err_pct"}
	checkpointLayer = []string{"sim.checkpoint_ms", "sim.fork_ms", "sim.checkpoint_mb"}
	serveLayer      = []string{
		"serve.query_p50_ms", "serve.query_tail_ms", "serve.first_event_ms_p50", "serve.overhead_ms_p50", "serve.cell_ms_p50",
		"serve.checkpoint.hits", "serve.checkpoint.extends", "serve.checkpoint.misses", "serve.checkpoint.evictions",
		"serve.checkpoint.hit_share", "serve.errors", "serve.rejected",
	}
)

// traceFig9 is the traced run of a fig9 workload: the first call's cells
// run three times, through the harness and rebuilt from public calls
// without and with span wrappers; all three obs must match, and the two
// rebuilds give trace.overhead_pct. The ladder then replays the same
// tapes layer by layer.
func traceFig9(o opts, sampled bool) (*outcome, error) {
	out := newOutcome()
	probe0 := hostProbe()
	seed := callSeed(o.seed, 0)
	pool := tape.NewPool(0, nil)
	defer pool.Close()
	t0 := time.Now()
	if err := recordTapes(pool, workload.Names(), workload.ScaleTiny, seed, fig9Prefix); err != nil {
		return nil, err
	}
	record := time.Since(t0)
	runtime.GC()

	p := fig9Params(seed, pool, sampled)
	res, err := experiments.RunHarness("fig9", p)
	out.op("fig9 harness call", err)
	if err != nil {
		return out, nil
	}
	var plain, traced phase
	var plainSnaps, snaps []*obs.Snapshot
	plain.measure(func() { plainSnaps, err = runFig9Cells(pool, p, nil) })
	out.op("untraced fig9 cells", err)
	if err != nil {
		return out, nil
	}
	sp := &spans{}
	traced.measure(func() { snaps, err = runFig9Cells(pool, p, sp) })
	out.op("traced fig9 cells", err)
	if err != nil {
		return out, nil
	}
	merged := obs.MergeAll(snaps)
	if a, b := mustJSON(obs.MergeAll(plainSnaps)), mustJSON(res.Obs); a != b {
		out.problem("rebuilt cells' obs differ from the harness call:\n rebuilt %s\nharness %s", a, b)
	}
	if a, b := mustJSON(merged), mustJSON(res.Obs); a != b {
		out.problem("traced cells' obs differ from the untraced call:\n traced %s\nuntraced %s", a, b)
	}
	adv := advanced(merged, sampled)
	if consumed := sp.genN + sp.skipN; consumed != adv {
		out.problem("traced generators delivered %d accesses, obs count %d advanced", consumed, adv)
	}
	if err := checkAdvanced(adv, fig9Cells); err != nil {
		out.problem("%v", err)
	}

	var l ladder
	for _, bench := range workload.Names() {
		if err := l.run(pool, bench, workload.ScaleTiny, seed, fig9Warmup+fig9Accesses); err != nil {
			return nil, err
		}
	}

	reportSpans(out, sp, adv)
	reportObs(out, merged)
	if sampled {
		c := merged.Counters
		out.set("sample.detailed_share", float64(c["sample.accesses_detailed"])/float64(adv), "ratio")
		out.set("sample.windows_measured", float64(c["sample.windows_measured"]), "count")
		var ci []float64
		for _, s := range snaps {
			ci = append(ci, float64(s.Gauges["sample.ci_halfwidth_ppm"]))
		}
		out.set("sample.ci_halfwidth_ppm", median(ci), "ppm")
		refs, err := loadRefs()
		if err != nil {
			return nil, err
		}
		errPct, err := sampledError([]fig9Call{{seed: seed, res: res}}, refs)
		if err != nil {
			out.problem("sample.err_pct: %v", err)
		}
		out.set("sample.err_pct", errPct, "%")
	} else {
		out.unreached(sampleLayer...)
	}
	out.unreached(append(checkpointLayer, serveLayer...)...)
	l.report(out)
	reportPool(out, pool, record, uint64(len(workload.Names()))*fig9Prefix)
	out.set("trace.overhead_pct", 100*(traced.cpu()/plain.cpu()-1), "%")
	out.set("host.ref_loop_ms", probe0, "ms")
	out.set("host.ref_loop_after_ms", hostProbe(), "ms")
	out.notef("trace.overhead_pct compares %.2fs CPU traced with %.2fs untraced over the same %d cells", traced.cpu(), plain.cpu(), len(snaps))
	return out, nil
}
