package sim

import (
	"m5/internal/cache"
	"m5/internal/cxl"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/stats"
	"m5/internal/tiermem"
	"m5/internal/trace"
)

// core is one simulated core's private state: its cache hierarchy, the
// arena base its instance's offsets are relative to, its clock, its op
// latency bookkeeping, and the index of its TLB in the shared system.
type core struct {
	cache   *cache.Hierarchy
	base    tiermem.VirtAddr
	clockNs uint64
	opStart uint64
	opLat   *stats.Reservoir
	tlb     int
}

// machine is the memory system every core shares: the tiers, the CXL
// device, the miss sinks, the optional word remapper and bandwidth
// channels, the migration daemon, and the DRAM traffic totals. Runner is
// a machine with one core; MultiRunner one with a core per instance.
type machine struct {
	Sys  *tiermem.System
	Ctrl *cxl.Controller

	remap WordRemap
	sinks trace.Tee // observers of the full DRAM-access stream
	// chans queues DRAM transfers on per-tier bandwidth channels; nil
	// means unbounded bandwidth (the single-core runner).
	chans *[2]channel
	costs tiermem.CostModel
	// latHit flattens the hit-level switch: indexed by cache.HitL1..HitLLC
	// (HitMemory takes the DRAM path instead). latRead is indexed by node.
	latHit  [4]uint64
	latRead [2]uint64

	daemon   Daemon
	nextTick uint64
	// obsTickKernel observes each tick's kernel time; nil leaves it
	// unregistered.
	obsTickKernel *obs.Histogram

	dramReads  [2]uint64
	dramWrites [2]uint64
}

// newMachine wires the latency tables for a cost model.
func newMachine(sys *tiermem.System, ctrl *cxl.Controller, costs tiermem.CostModel) machine {
	m := machine{Sys: sys, Ctrl: ctrl, costs: costs}
	m.latHit[cache.HitL1] = costs.L1HitNs
	m.latHit[cache.HitL2] = costs.L2HitNs
	m.latHit[cache.HitLLC] = costs.LLCHitNs
	m.latRead[tiermem.NodeDDR] = costs.DDRReadNs
	m.latRead[tiermem.NodeCXL] = costs.CXLReadNs
	return m
}

// translate maps an access of core c to its physical address, stalling
// the core for any page walk or fault.
//
//m5:hotpath
func (m *machine) translate(c *core, off uint64, write bool) (tr tiermem.TranslateResult) {
	m.Sys.TranslateInto(c.tlb, c.base+tiermem.VirtAddr(off), write, &tr)
	c.clockNs += tr.ExtraNs
	return tr
}

// endOp records the latency of the op completing at the core clock and
// opens the next one.
//
//m5:hotpath
func (c *core) endOp() {
	c.opLat.Add(float64(c.clockNs - c.opStart))
	c.opStart = c.clockNs
}

// service is the one per-access account every engine shares: core c's
// cache access, then the hit latency or the DRAM read (word remap, node
// credit, bandwidth channel, device snoop and miss-sink fan-out), then the
// dirty writebacks. Every credit counts w times: w > 1 when the access
// stands in for thinned-away neighbours (Horvitz-Thompson), while the
// cache state transition happens once. With frozen set the core clock
// stays put and the traffic is stamped with it — the functional tier's
// coarse clock advances per batch instead. A writeback's channel delay is
// never charged to the core.
//
//m5:hotpath
func (m *machine) service(c *core, phys mem.PhysAddr, write bool, w uint64, frozen bool) {
	t := c.clockNs
	res := c.cache.Access(phys, write)
	if res.Level != cache.HitMemory {
		t += m.latHit[res.Level]
	} else {
		node := m.Sys.NodeOfAddr(phys)
		if m.remap != nil {
			served, extra := m.remap.Serve(phys.Word(), node)
			t += extra
			node = served
		}
		m.Sys.Node(node).CountReads(w)
		m.dramReads[node] += w
		if m.chans != nil {
			t += m.chans[node].serve(t)
		}
		t += m.latRead[node]
		at := t
		if frozen {
			at = c.clockNs
		}
		m.snoop(node, trace.Access{Time: at, Addr: phys, Write: write}, w)
	}
	for _, wb := range res.Writeback {
		node := m.Sys.NodeOfAddr(wb)
		m.Sys.Node(node).CountWrites(w)
		m.dramWrites[node] += w
		t += m.costs.DRAMWriteNs
		if m.chans != nil {
			m.chans[node].serve(t)
		}
		at := t
		if frozen {
			at = c.clockNs
		}
		m.snoop(node, trace.Access{Time: at, Addr: wb, Write: true}, w)
	}
	if !frozen {
		c.clockNs = t
	}
}

// snoop hands one DRAM access, w times, to the CXL device when it owns
// the line and to every miss sink.
//
//m5:hotpath
func (m *machine) snoop(node tiermem.NodeID, a trace.Access, w uint64) {
	if node == tiermem.NodeCXL {
		m.Ctrl.Device.AccessN(a, w)
	}
	if len(m.sinks) > 0 {
		m.sinks.ObserveN(a, w)
	}
}

// tick runs the daemon once the clock of the core it shares has reached
// its next period. The check inlines; the tick itself does not.
//
//m5:hotpath
func (m *machine) tick(now uint64) {
	if m.daemon != nil && now >= m.nextTick {
		m.fire(now)
	}
}

// fire runs one daemon tick at now and schedules the next.
//
//m5:hotpath
func (m *machine) fire(now uint64) {
	before := m.Sys.KernelNs()
	m.daemon.Tick(now)
	m.nextTick = now + m.daemon.PeriodNs()
	m.obsTickKernel.Observe(m.Sys.KernelNs() - before)
}
