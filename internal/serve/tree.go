// Package serve turns the batch experiment harnesses into a long-running
// sweep service: a copy-on-write tree of warmed simulator checkpoints
// (this file), and an HTTP frontend (server.go) that streams sweep
// results over NDJSON.
//
// The tree is the serving counterpart of the warmup sharing individual
// harnesses already do within one batch run: checkpoints and tapes make
// every simulation a pure, resumable function of (workload, config,
// prefix), so a warmed machine is a cacheable value. Queries that share
// a warm prefix fork it instead of re-simulating; queries that need a
// longer prefix fork the longest cached ancestor and simulate only the
// delta. Every path hands back
// machine state bit-identical to a cold warmup — the sim.Checkpoint
// fork contract — so served results never diverge from batch runs.
package serve

import (
	"fmt"
	"sync"

	"m5/internal/experiments"
	"m5/internal/sim"
	"m5/internal/workload"
)

// treeKey identifies one warm checkpoint: the harness's warm shape
// (benchmark + kind tag naming the bare config that was warmed) plus
// every Params field that shapes machine state during warmup.
type treeKey struct {
	Bench  string
	Kind   string
	Scale  workload.Scale
	Seed   int64
	Warmup int
	// Sampled-tier fields: sampling changes machine state (the warmup's
	// simulated clock is coarsened), so sampled warmups must never share
	// checkpoints with exact ones — or with sampled warmups of a
	// different geometry.
	Sample       bool
	SampleWindow int
	SampleStride int
	TargetCI     float64
}

// less is the deterministic total order on tree keys, used to break
// lastUse ties in ancestor selection and eviction. Field-wise
// comparison rather than String() ordering: the tie-break sits on the
// serving lookup path, and rendering two keys through fmt on every
// comparison is an allocation the zero-alloc gates would reject. The
// field order mirrors the struct; both orders are total, and ties are
// broken identically on every field, so eviction and ancestor choice
// stay deterministic exactly as before.
//
//m5:hotpath
func (k treeKey) less(o treeKey) bool {
	if k.Bench != o.Bench {
		return k.Bench < o.Bench
	}
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	if k.Scale != o.Scale {
		return k.Scale < o.Scale
	}
	if k.Seed != o.Seed {
		return k.Seed < o.Seed
	}
	if k.Warmup != o.Warmup {
		return k.Warmup < o.Warmup
	}
	if k.Sample != o.Sample {
		return o.Sample
	}
	if k.SampleWindow != o.SampleWindow {
		return k.SampleWindow < o.SampleWindow
	}
	if k.SampleStride != o.SampleStride {
		return k.SampleStride < o.SampleStride
	}
	return k.TargetCI < o.TargetCI
}

func (k treeKey) String() string {
	s := fmt.Sprintf("%s/%s/%v/seed%d/warm%d", k.Bench, k.Kind, k.Scale, k.Seed, k.Warmup)
	if k.Sample {
		s += fmt.Sprintf("/smp%d-%d-%v", k.SampleWindow, k.SampleStride, k.TargetCI)
	}
	return s
}

// treeNode is one cached checkpoint. ready closes when the build
// completes (single-flight: concurrent requests for the same key wait
// instead of duplicating the warmup); cp/err are immutable afterwards.
type treeNode struct {
	key     treeKey
	ready   chan struct{}
	cp      *sim.Checkpoint
	err     error
	lastUse uint64
}

// Tree is a bounded, concurrency-safe store of warmed checkpoints
// implementing experiments.WarmSource. Unlike the obs registry it is
// designed for concurrent use: every request may arrive on its own
// goroutine, so all state lives under one mutex and builds run outside
// it with single-flight pending nodes.
type Tree struct {
	mu       sync.Mutex
	maxNodes int
	nodes    map[treeKey]*treeNode //m5:guardedby mu
	tick     uint64                //m5:guardedby mu (logical LRU clock; bumped on every touch)

	hits      uint64 //m5:guardedby mu (exact-key reuse, including waits on a pending build)
	misses    uint64 //m5:guardedby mu (full cold warmups)
	extends   uint64 //m5:guardedby mu (prefix extensions: fork an ancestor, run the delta)
	evictions uint64 //m5:guardedby mu
}

var _ experiments.WarmSource = (*Tree)(nil)

// NewTree builds a checkpoint tree retaining at most maxNodes ready
// checkpoints (<=0 means a default of 64). Eviction is LRU with a
// deterministic (lastUse, key) tie-break; in-flight builds are never
// evicted.
func NewTree(maxNodes int) *Tree {
	if maxNodes <= 0 {
		maxNodes = 64
	}
	return &Tree{maxNodes: maxNodes, nodes: map[treeKey]*treeNode{}}
}

// TreeStats is the /obs view of the tree. Forks served is hits + misses
// + extends: every WarmCheckpoint call vends a checkpoint the caller
// forks at least once.
type TreeStats struct {
	Nodes     int    `json:"nodes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Extends   uint64 `json:"extends"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the tree counters.
func (t *Tree) Stats() TreeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TreeStats{
		Nodes:     len(t.nodes),
		Hits:      t.hits,
		Misses:    t.misses,
		Extends:   t.extends,
		Evictions: t.evictions,
	}
}

// WarmCheckpoint implements experiments.WarmSource: return a checkpoint
// positioned exactly where build()+Run(p.Warmup) would leave a fresh
// runner. Resolution order: exact cached key (hit), longest ready
// ancestor with the same shape and a shorter warmup (fork + run the
// remaining delta + cache), full build (miss). Failed builds are
// removed so a later request can retry.
//
//m5:plumb experiments.Params ignore=Accesses,Points,Benchmarks,Parallel,CollectObs,Tapes,Warm
func (t *Tree) WarmCheckpoint(p experiments.Params, key experiments.WarmKey, build func() (*sim.Runner, error)) (*sim.Checkpoint, error) {
	full := treeKey{
		Bench:  key.Bench,
		Kind:   key.Kind,
		Scale:  p.Scale,
		Seed:   p.Seed,
		Warmup: p.Warmup,
	}
	if p.Sample {
		full.Sample = true
		full.SampleWindow = p.SampleWindow
		full.SampleStride = p.SampleStride
		full.TargetCI = p.TargetCI
	}

	t.mu.Lock()
	if n, ok := t.nodes[full]; ok {
		t.touch(n)
		t.hits++
		t.mu.Unlock()
		<-n.ready
		return n.cp, n.err
	}
	// Claim the key with a pending node before unlocking, so concurrent
	// requests for the same warmup wait on this build instead of
	// duplicating it.
	n := &treeNode{key: full, ready: make(chan struct{})}
	t.touch(n)
	t.nodes[full] = n
	var anc *treeNode
	if !full.Sample {
		// Sampled warmups never extend an ancestor: window placement is a
		// function of the stream position at each Run-call boundary, so
		// Run(a)+Run(b) is not Run(a+b) in sampled mode. Exact mode keeps
		// the equivalence, so only it may fork-and-extend.
		anc = t.bestAncestor(full)
	}
	t.mu.Unlock()

	var cp *sim.Checkpoint
	var err error
	if anc != nil {
		cp, err = t.extend(anc, full.Warmup-anc.key.Warmup)
	} else {
		cp, err = t.buildFull(p, build)
	}

	t.mu.Lock()
	n.cp, n.err = cp, err
	close(n.ready)
	if err != nil {
		delete(t.nodes, full)
	} else if anc != nil {
		t.extends++
	} else {
		t.misses++
	}
	t.evict()
	t.mu.Unlock()
	return cp, err
}

// touch bumps a node's LRU clock. Callers hold t.mu.
//
//m5:hotpath
//m5:locked mu
func (t *Tree) touch(n *treeNode) {
	t.tick++
	n.lastUse = t.tick
}

// bestAncestor returns the ready, healthy node with the same warm shape
// and the largest warmup strictly below want's. Callers hold t.mu.
//
//m5:locked mu
func (t *Tree) bestAncestor(want treeKey) *treeNode {
	var best *treeNode
	for k, n := range t.nodes {
		if k.Bench != want.Bench || k.Kind != want.Kind || k.Scale != want.Scale ||
			k.Seed != want.Seed || k.Sample || k.Warmup >= want.Warmup {
			continue
		}
		select {
		case <-n.ready:
			if n.err != nil {
				continue
			}
		default:
			continue // still building
		}
		if best == nil || k.Warmup > best.key.Warmup ||
			(k.Warmup == best.key.Warmup && k.less(best.key)) {
			best = n
		}
	}
	return best
}

// extend forks an ancestor checkpoint, runs the remaining warmup delta,
// and re-checkpoints. The fork contract makes the result bit-identical
// to warming the full prefix in one run.
func (t *Tree) extend(anc *treeNode, delta int) (*sim.Checkpoint, error) {
	r, err := anc.cp.Fork()
	if err != nil {
		return nil, err
	}
	r.Run(delta)
	cp, err := r.Checkpoint()
	r.Close()
	return cp, err
}

// buildFull warms a fresh runner — the cold path every other path must
// match byte for byte.
func (t *Tree) buildFull(p experiments.Params, build func() (*sim.Runner, error)) (*sim.Checkpoint, error) {
	r, err := build()
	if err != nil {
		return nil, err
	}
	r.Run(p.Warmup)
	cp, err := r.Checkpoint()
	r.Close()
	return cp, err
}

// evict drops least-recently-used ready nodes until the tree fits
// maxNodes, breaking lastUse ties by the field-wise key order so
// eviction never depends on map iteration. In-flight builds don't count
// against the budget and are never dropped. Callers hold t.mu.
//
//m5:locked mu
func (t *Tree) evict() {
	for {
		ready := 0
		var victim *treeNode
		for _, n := range t.nodes {
			select {
			case <-n.ready:
			default:
				continue
			}
			ready++
			if victim == nil || n.lastUse < victim.lastUse ||
				(n.lastUse == victim.lastUse && n.key.less(victim.key)) {
				victim = n
			}
		}
		if ready <= t.maxNodes || victim == nil {
			return
		}
		delete(t.nodes, victim.key)
		t.evictions++
	}
}
