// Package sim is the end-to-end engine of the reproduction: it drives a
// workload's virtual-address stream through the TLB/page-table model, the
// cache hierarchy, and the tiered DRAM (DDR + CXL device), while a
// migration daemon (ANB, DAMON, PEBS, or the M5-manager) runs periodically
// on the same core — so the cost of identifying hot pages degrades the
// workload exactly as §4.2 measures, and the benefit of migrating true hot
// pages shows up as saved CXL latency exactly as §7.2 measures.
//
// Time is a deterministic nanosecond clock: each access pays its cache or
// DRAM latency plus any translation cost; each daemon tick adds the kernel
// time it consumed (the paper pins the migration processes to the
// benchmark's core, §6).
package sim

import (
	"fmt"

	"m5/internal/cache"
	"m5/internal/cxl"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/stats"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// WordRemap intercepts DRAM accesses below the page table, deciding which
// tier actually serves a word and at what extra cost. It models
// memory-controller-level mechanisms like Intel Flat Memory Mode
// (package ifmm), which the paper discusses as complementary to M5 (§9).
type WordRemap interface {
	// Serve returns the tier serving this word access and any extra
	// latency (e.g. a swap), given the word's home tier.
	Serve(w mem.WordNum, home tiermem.NodeID) (tiermem.NodeID, uint64)
}

// Daemon is a page-migration solution scheduled by the engine: the unified
// tiermem.Policy contract (Name / PeriodNs / Tick / Stats). The baselines
// and the M5 manager all satisfy it.
type Daemon = tiermem.Policy

// tickKernelBounds buckets the kernel time one daemon tick consumed
// (metric policy.tick_kernel_ns): 1µs / 10µs / 100µs / 1ms / 10ms edges
// span the §4.2 identification-overhead range.
var tickKernelBounds = []uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// Config assembles one experiment.
type Config struct {
	// Workload supplies the access stream. The runner allocates its
	// arena entirely on CXL at start, as the paper's cgroup setup does
	// (§4.1 S2, §7.2).
	Workload workload.Generator
	// DDRFraction sizes the DDR cgroup limit as a fraction of the
	// workload footprint (the paper's 3GB over ~6-8GB ≈ 0.5). Default 0.5.
	DDRFraction float64
	// Cache configures the hierarchy; zero-value uses platform defaults.
	// For scaled-down experiments pick a NewScaledCache.
	Cache cache.HierarchyConfig
	// Costs is the latency/cost model (default DefaultCosts).
	Costs tiermem.CostModel
	// HPT / HWT enable trackers on the CXL controller.
	HPT *tracker.Config
	HWT *tracker.Config
	// EnablePAC / EnableWAC attach the exact profilers (needed by the
	// access-count-ratio and sparsity experiments).
	EnablePAC bool
	EnableWAC bool
	// HugePages maps the workload arena as 2MB huge pages (the §8
	// extension): the footprint rounds up to a 512-page multiple and
	// migrations move whole units. Requires a footprint of at least one
	// huge page.
	HugePages bool
	// TLBEntries sizes the core TLB. The default scales with the
	// footprint, preserving the paper's TLB-coverage ratio (1536 entries
	// over ~2M pages): a scaled-down instance gets a scaled-down TLB, so
	// accessed bits keep flowing from TLB-miss page walks — the signal
	// DAMON and MGLRU live on.
	TLBEntries int
	// CtxSwitchPeriodNs flushes the TLB periodically (context switches /
	// timer ticks), the "architectural events" §2.1 cites as the passive
	// invalidation path. Default 1ms of simulated time (a 1kHz tick).
	CtxSwitchPeriodNs uint64
	// Metrics, when non-nil, is the experiment's observability registry:
	// the runner fans scoped children out to every layer ("cache", "cxl",
	// "mem") and observes daemon-tick kernel time under "policy". Nil
	// keeps every instrumented hot path at a single nil check (zero
	// allocations, no counter work).
	Metrics *obs.Registry
	// Sampling selects the fidelity tier (see sampling.go): the
	// zero value and "exact" keep the byte-identical engine; "sampled"
	// alternates functional warming with detailed measurement windows
	// and reports headline time as an estimate with a Student-t
	// confidence interval.
	Sampling SamplingConfig
}

// Runner is one assembled experiment instance.
type Runner struct {
	Sys   *tiermem.System
	Ctrl  *cxl.Controller
	Cache *cache.Hierarchy

	cfg      Config // retained (with defaults applied) so checkpoints can rebuild the machine
	gen      workload.Generator
	base     tiermem.VPN
	daemon   Daemon
	remap    WordRemap
	sinks    trace.Tee // observers of the full DRAM-access stream
	clockNs  uint64
	nextTick uint64
	opStart  uint64
	opLat    *stats.Reservoir
	costs    tiermem.CostModel
	// latHit flattens the per-access hit-level switch: indexed by
	// cache.HitL1..HitLLC (HitMemory takes the DRAM path instead).
	latHit [4]uint64
	// batch is the reusable access buffer the batched loop pulls the
	// generator stream into (also the transpose scratch of the
	// functional kernel's columnar refill).
	batch []workload.Access

	// Sampled-mode state (sampling.go): sampled caches
	// cfg.Sampling.Enabled(); smp is the per-Run scheduler scratch and
	// fn the functional kernel's.
	// estPrior persists the measured mean user-side ns/access across Runs
	// (and through Checkpoint/Fork), so spans too short to schedule their
	// own windows can still run thinned against a primed estimate.
	sampled  bool
	smp      sampleState
	fn       *functionalState
	estPrior float64

	ctxNs   uint64
	nextCtx uint64

	metrics        *obs.Registry
	obsTickKernel  *obs.Histogram
	obsKernelNs    *obs.Gauge
	obsResidentDDR *obs.Gauge
	// sample.* metrics are registered only for sampled runners, so
	// exact-mode snapshots stay byte-identical (an absent metric never
	// appears in a snapshot).
	obsSampleWindows    *obs.Counter
	obsSampleDetailed   *obs.Counter
	obsSampleFunctional *obs.Counter
	obsSampleSkipped    *obs.Counter
	obsSampleCIHalf     *obs.Gauge

	accesses   uint64
	dramReads  [2]uint64
	dramWrites [2]uint64
}

// NewScaledCache returns a hierarchy config scaled for the MB-range
// footprints of the reproduction's workload instances: the cache must be
// small relative to the footprint or no DRAM traffic survives filtering
// (the paper's LLC-to-footprint ratio is ~16MB : 6-8GB).
func NewScaledCache(footprintBytes uint64) cache.HierarchyConfig {
	// Target an LLC of ~1/256 of the footprint, rounded down to a power
	// of two (so sets divide evenly), clamped to [64KB, 8MB].
	llc := uint64(64 << 10)
	for llc*2 <= footprintBytes/256 && llc < 8<<20 {
		llc *= 2
	}
	way := llc / 8
	return cache.HierarchyConfig{
		L1:          cache.Config{SizeBytes: 8 << 10, Ways: 2},
		L2:          cache.Config{SizeBytes: int(llc / 8), Ways: 4},
		LLCWayBytes: int(way),
		LLCWays:     8,
	}
}

// NewRunner builds the machine for a workload: it sizes the tiers from the
// footprint, allocates every page on CXL, and wires the controller's snoop
// path.
//
//m5:plumb Config
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("sim: config needs a workload")
	}
	if cfg.DDRFraction == 0 {
		cfg.DDRFraction = 0.5
	}
	if cfg.Costs == (tiermem.CostModel{}) {
		cfg.Costs = tiermem.DefaultCosts()
	}
	footPages := (cfg.Workload.Footprint() + 4095) / 4096
	if footPages == 0 {
		return nil, fmt.Errorf("sim: workload %q has empty footprint", cfg.Workload.Name())
	}
	nHuge := 0
	if cfg.HugePages {
		nHuge = int((footPages + mem.PagesPerHugePage - 1) / mem.PagesPerHugePage)
		if nHuge == 0 {
			return nil, fmt.Errorf("sim: footprint below one huge page")
		}
		footPages = uint64(nHuge) * mem.PagesPerHugePage
	}
	if cfg.TLBEntries == 0 {
		cfg.TLBEntries = scaledTLBEntries(footPages)
	}
	if cfg.CtxSwitchPeriodNs == 0 {
		cfg.CtxSwitchPeriodNs = 1_000_000
	}
	if err := cfg.Sampling.validate(); err != nil {
		return nil, err
	}
	cfg.Sampling = cfg.Sampling.withDefaults()
	ddrLimit := uint64(float64(footPages) * cfg.DDRFraction) //m5:floatok setup-time DDR capacity sizing
	if ddrLimit == 0 {
		ddrLimit = 1
	}
	sys := tiermem.NewSystem(tiermem.Config{
		// Physical DDR is provisioned at the limit+slack; the cgroup
		// limit is what constrains the workload.
		DDRPages:      ddrLimit + mem.PagesPerHugePage,
		CXLPages:      footPages + 64,
		DDRLimitPages: ddrLimit,
		Cores:         1,
		TLBEntries:    cfg.TLBEntries,
		Costs:         cfg.Costs,
		Metrics:       cfg.Metrics.Scope("mem"),
	})
	var base tiermem.VPN
	var err error
	if cfg.HugePages {
		base, err = sys.AllocHuge(nHuge, tiermem.NodeCXL)
	} else {
		base, err = sys.Alloc(int(footPages), tiermem.NodeCXL)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: allocating arena: %w", err)
	}
	ctrl := cxl.NewController(cxl.ControllerConfig{
		Span:      sys.CXLSpan(),
		EnablePAC: cfg.EnablePAC,
		EnableWAC: cfg.EnableWAC,
		HPT:       cfg.HPT,
		HWT:       cfg.HWT,
		Metrics:   cfg.Metrics.Scope("cxl"),
	})
	cacheCfg := cfg.Cache
	if cacheCfg == (cache.HierarchyConfig{}) {
		cacheCfg = NewScaledCache(cfg.Workload.Footprint())
	}
	// Set after the zero-value check above, or a caller passing only a
	// registry would dodge the scaled-cache default.
	cacheCfg.Metrics = cfg.Metrics.Scope("cache")
	r := &Runner{
		Sys:     sys,
		Ctrl:    ctrl,
		Cache:   cache.NewHierarchy(cacheCfg),
		gen:     cfg.Workload,
		base:    base,
		opLat:   stats.NewReservoir(1<<15, 17),
		costs:   cfg.Costs,
		ctxNs:   cfg.CtxSwitchPeriodNs,
		nextCtx: cfg.CtxSwitchPeriodNs,
	}
	r.metrics = cfg.Metrics
	policyScope := cfg.Metrics.Scope("policy")
	r.obsTickKernel = policyScope.Histogram("tick_kernel_ns", tickKernelBounds)
	memScope := cfg.Metrics.Scope("mem")
	r.obsKernelNs = memScope.Gauge("kernel_ns")
	r.obsResidentDDR = memScope.Gauge("resident_ddr_pages")
	r.latHit[cache.HitL1] = cfg.Costs.L1HitNs
	r.latHit[cache.HitL2] = cfg.Costs.L2HitNs
	r.latHit[cache.HitLLC] = cfg.Costs.LLCHitNs
	r.sampled = cfg.Sampling.Enabled()
	if r.sampled {
		sampleScope := cfg.Metrics.Scope("sample")
		r.obsSampleWindows = sampleScope.Counter("windows_measured")
		r.obsSampleDetailed = sampleScope.Counter("accesses_detailed")
		r.obsSampleFunctional = sampleScope.Counter("accesses_functional")
		r.obsSampleSkipped = sampleScope.Counter("accesses_skipped")
		r.obsSampleCIHalf = sampleScope.Gauge("ci_halfwidth_ppm")
	}
	r.cfg = cfg
	return r, nil
}

// dramReadLatency returns the read latency for a DRAM access at the node.
//
//m5:hotpath
func (r *Runner) dramReadLatency(node tiermem.NodeID) uint64 {
	if node == tiermem.NodeCXL {
		return r.costs.CXLReadNs
	}
	return r.costs.DDRReadNs
}

// scaledTLBEntries keeps TLB coverage proportional to the paper's
// platform: 1536 entries for a multi-GB footprint, scaled down (but at
// least 16 entries) for the reduced instances.
func scaledTLBEntries(footPages uint64) int {
	n := footPages / 64
	if n < 16 {
		n = 16
	}
	if n > 1536 {
		n = 1536
	}
	return int(n)
}

// Base returns the first VPN of the workload arena.
func (r *Runner) Base() tiermem.VPN { return r.base }

// SetDaemon installs the migration daemon (nil = no page migration).
func (r *Runner) SetDaemon(d Daemon) {
	r.daemon = d
	if d != nil {
		r.nextTick = r.clockNs + d.PeriodNs()
	}
}

// AttachMissSink adds an observer of the DRAM access stream (the LLC-miss
// stream): PEBS samplers, trace recorders, and the like. CXL-side
// functions (PAC/WAC/HPT/HWT) are attached to the controller instead and
// see only device traffic, as in hardware.
func (r *Runner) AttachMissSink(s trace.Sink) {
	r.sinks = append(r.sinks, s)
}

// SetWordRemap installs a memory-controller-level word remapper (nil
// disables). The remapper decides, per LLC miss, which tier serves the
// word — the IFMM swap path.
func (r *Runner) SetWordRemap(m WordRemap) { r.remap = m }

// NowNs returns the simulated clock.
func (r *Runner) NowNs() uint64 { return r.clockNs }

// runnerBatch is the number of accesses the batched loop pulls from the
// generator per refill. It never changes results — it only amortizes
// generator dispatch.
const runnerBatch = 1024

// StepBatch executes up to max accesses (bounded by one internal batch)
// and returns how many ran; 0 means the workload stream has ended.
// Results depend only on the total access count, never on how it is cut
// into StepBatch calls.
func (r *Runner) StepBatch(max int) int {
	if max <= 0 {
		return 0
	}
	if r.batch == nil {
		r.batch = make([]workload.Access, runnerBatch)
	}
	buf := r.batch
	if max < len(buf) {
		buf = buf[:max]
	}
	n := workload.NextBatch(r.gen, buf)
	if n == 0 {
		return 0
	}
	r.runBatch(buf[:n])
	return n
}

// runBatch is the batched hot loop. Loop-invariant state (sink presence,
// remapper, daemon, context-switch period, arena base) is hoisted into
// locals; the hit-level switch is a table lookup; and one trace.Access
// scratch value feeds both the CXL snoop path and the miss-sink fan-out.
//
//m5:hotpath
func (r *Runner) runBatch(accs []workload.Access) {
	var (
		base     = r.base.Addr()
		hasSinks = len(r.sinks) > 0
		remap    = r.remap
		daemon   = r.daemon
		ctxOn    = r.ctxNs > 0
		scratch  trace.Access
		tr       tiermem.TranslateResult
	)
	for i := range accs {
		a := &accs[i]
		r.accesses++
		kernelBefore := r.Sys.KernelNs()
		va := base + tiermem.VirtAddr(a.Offset)
		r.Sys.TranslateInto(0, va, a.Write, &tr)
		r.clockNs += tr.ExtraNs

		res := r.Cache.Access(tr.Phys, a.Write)
		if res.Level != cache.HitMemory {
			r.clockNs += r.latHit[res.Level]
		} else {
			node := r.Sys.NodeOfAddr(tr.Phys)
			if remap != nil {
				served, extra := remap.Serve(tr.Phys.Word(), node)
				r.clockNs += extra
				node = served
			}
			r.Sys.Node(node).CountRead() //m5:unitcredit exact engine: one access, weight 1
			r.dramReads[node]++
			r.clockNs += r.dramReadLatency(node)
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: r.clockNs, Addr: tr.Phys, Write: a.Write}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.Access(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
				if hasSinks {
					r.sinks.Observe(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
			}
		}
		for _, wb := range res.Writeback {
			node := r.Sys.CountDRAMAccess(wb, true)
			r.dramWrites[node]++
			r.clockNs += r.costs.DRAMWriteNs
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: r.clockNs, Addr: wb, Write: true}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.Access(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
				if hasSinks {
					r.sinks.Observe(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
			}
		}

		if a.OpEnd {
			r.opLat.Add(float64(r.clockNs - r.opStart))
			r.opStart = r.clockNs
		}

		if ctxOn && r.clockNs >= r.nextCtx {
			r.Sys.TLB(0).Flush()
			r.nextCtx = r.clockNs + r.ctxNs
		}

		if daemon != nil && r.clockNs >= r.nextTick {
			tickKernelBefore := r.Sys.KernelNs()
			daemon.Tick(r.clockNs)
			r.nextTick = r.clockNs + daemon.PeriodNs()
			r.obsTickKernel.Observe(r.Sys.KernelNs() - tickKernelBefore)
		}

		r.clockNs += r.Sys.KernelNs() - kernelBefore
	}
}

// Run executes n accesses (or until the stream ends) and returns metrics
// for that span. Internally it drives the batched loop. With
// Config.Sampling set to "sampled" the span runs through the
// tiered-fidelity scheduler instead (sampling.go) and the headline time
// is a windowed estimate.
func (r *Runner) Run(n int) Result {
	if r.sampled {
		return r.runSampled(n)
	}
	span := r.beginSpan()
	r.runExactSpan(n)
	return r.endSpan(span)
}

// spanStart is the counter baseline captured at the start of one Run span.
type spanStart struct {
	clockNs  uint64
	kernelNs uint64
	accesses uint64
	reads    [2]uint64
	writes   [2]uint64
}

func (r *Runner) beginSpan() spanStart {
	r.opLat.Reset()
	return spanStart{
		clockNs:  r.clockNs,
		kernelNs: r.Sys.KernelNs(),
		accesses: r.accesses,
		reads:    r.dramReads,
		writes:   r.dramWrites,
	}
}

// endSpan assembles the span's Result from the counter deltas.
func (r *Runner) endSpan(span spanStart) Result {
	res := Result{
		Workload:   r.gen.Name(),
		Accesses:   r.accesses - span.accesses,
		ElapsedNs:  r.clockNs - span.clockNs,
		KernelNs:   r.Sys.KernelNs() - span.kernelNs,
		Promotions: r.Sys.Promotions(),
		Demotions:  r.Sys.Demotions(),
	}
	if r.daemon != nil {
		res.Daemon = r.daemon.Name()
	} else {
		res.Daemon = "none"
	}
	for node := 0; node < 2; node++ {
		res.DRAMReads[node] = r.dramReads[node] - span.reads[node]
		res.DRAMWrites[node] = r.dramWrites[node] - span.writes[node]
	}
	if r.opLat.Len() > 0 {
		res.OpCount = uint64(r.opLat.Len())
		res.P50OpNs = r.opLat.Percentile(50)
		res.P99OpNs = r.opLat.Percentile(99)
	}
	if res.ElapsedNs > 0 {
		res.AccessesPerSec = float64(res.Accesses) * 1e9 / float64(res.ElapsedNs) //m5:floatok report-side throughput derivation from integer counters
	}
	if r.metrics != nil {
		// Gauges are point-in-time state, set once per span end so the
		// access loop stays untouched.
		r.obsKernelNs.Set(r.Sys.KernelNs())
		r.obsResidentDDR.Set(r.Sys.ResidentPages(tiermem.NodeDDR))
		res.Obs = r.metrics.Snapshot()
	}
	return res
}

// Close releases the workload generator.
func (r *Runner) Close() { r.gen.Close() }

// Result summarizes one measured span.
type Result struct {
	Workload string
	Daemon   string
	// Accesses is the number of workload memory operations executed.
	Accesses uint64
	// ElapsedNs is simulated wall time — the end-to-end performance
	// metric (inverse of throughput).
	ElapsedNs uint64
	// KernelNs is CPU time consumed by kernel mm work in the span — the
	// §4.2 identification-overhead metric.
	KernelNs uint64
	// DRAMReads/DRAMWrites per node (index by tiermem.NodeID).
	DRAMReads  [2]uint64
	DRAMWrites [2]uint64
	// Promotions/Demotions are cumulative system totals at span end.
	Promotions uint64
	Demotions  uint64
	// OpCount and latency percentiles are present for KVS workloads.
	OpCount uint64
	P50OpNs float64
	P99OpNs float64
	// AccessesPerSec is the throughput.
	AccessesPerSec float64
	// Obs is the observability snapshot at span end (nil unless
	// Config.Metrics was set). Counter values are cumulative since the
	// runner was built, not since the span start.
	Obs *obs.Snapshot
	// Sampling is non-nil only for sampled-mode spans: the fidelity-tier
	// tag plus the estimate, its confidence interval, and the window
	// counts behind it. Exact spans carry nil, so a consumer can always
	// tell which tier produced a Result.
	Sampling *SamplingInfo
}

// Speedup returns how much faster this result ran than the baseline
// (ratio of baseline elapsed time to this elapsed time).
func (r Result) Speedup(baseline Result) float64 {
	if r.ElapsedNs == 0 {
		return 0
	}
	return float64(baseline.ElapsedNs) / float64(r.ElapsedNs) //m5:floatok report-side speedup ratio from integer clocks
}

// CXLReadShare returns the fraction of DRAM reads served by CXL — the
// quantity migration is trying to shrink.
func (r Result) CXLReadShare() float64 {
	tot := r.DRAMReads[tiermem.NodeDDR] + r.DRAMReads[tiermem.NodeCXL]
	if tot == 0 {
		return 0
	}
	return float64(r.DRAMReads[tiermem.NodeCXL]) / float64(tot) //m5:floatok report-side share derivation from integer counters
}
