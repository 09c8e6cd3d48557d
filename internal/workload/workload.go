// Package workload implements the twelve memory-intensive benchmarks of
// the paper's evaluation (Table 3) as synthetic-but-structural access
// generators: the GAP graph kernels (BFS, SSSP, PR, CC, BC, TC) run as
// real algorithms over synthetic Kronecker graphs; the SPEC CPU 2017
// workloads (mcf_r, cactuBSSN_r, fotonik3d_r, roms_r) as kernels with the
// same data layout and sweep structure; Redis as a slab-allocated
// key-value store driven by YCSB-A; and Liblinear as sparse dual
// coordinate descent over a synthetic KDD-like design matrix.
//
// Generators emit virtual-address accesses relative to their own arena
// (offset 0 is the workload's first byte); the simulator maps the arena
// onto the tiered-memory system. What matters for every reproduced figure
// is the page-access distribution (skew, sparsity, phase behaviour), which
// these generators preserve and the package tests pin.
package workload

import "fmt"

// Access is one memory operation at a byte offset within the workload's
// arena.
type Access struct {
	Offset uint64
	Write  bool
	// OpEnd marks the last access of a client-visible operation; the
	// simulator uses it to measure per-operation latency (Redis p99).
	// Batch workloads leave it false.
	OpEnd bool
}

// Generator produces an unbounded access stream. Implementations are not
// safe for concurrent use. Close releases the producer; it is safe to call
// more than once.
type Generator interface {
	// Name identifies the benchmark (matches the paper's Table 3 names).
	Name() string
	// Footprint is the arena size in bytes.
	Footprint() uint64
	// Next returns the next access. ok=false only after Close.
	Next() (Access, bool)
	// Close stops the generator.
	Close()
}

// BatchGenerator is implemented by generators that can hand out many
// accesses per call, amortizing the per-access interface dispatch on the
// simulator's hot path. The batch stream is element-for-element identical
// to the Next stream.
type BatchGenerator interface {
	Generator
	// NextBatch fills buf with the next accesses of the stream and
	// returns how many were written. A return of 0 means the stream has
	// ended (only after Close), exactly when Next would report ok=false.
	NextBatch(buf []Access) int
}

// NextBatch fills buf from g, using the generator's batch path when it has
// one and falling back to repeated Next calls otherwise, so engines can be
// written against batches without caring which kind of generator they got.
//
//m5:hotpath
func NextBatch(g Generator, buf []Access) int {
	if bg, ok := g.(BatchGenerator); ok {
		return bg.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		a, ok := g.Next()
		if !ok {
			break
		}
		buf[n] = a
		n++
	}
	return n
}

// Columns is a batch of accesses in columnar (structure-of-arrays) form:
// Offs holds byte offsets, Writes is a bitset (bit i set = access i is a
// store), and OpEnds lists the in-batch indices that end client-visible
// operations, ascending. The simulator's functional kernel consumes
// batches in this shape so tape replay can decode straight into packed arrays instead of
// per-access structs.
type Columns struct {
	Offs   []uint64
	Writes []uint64
	OpEnds []int32
}

// Grow ensures the columns can hold batches of up to n accesses. Callers
// size once at setup; the per-batch paths (Clear, Transpose, columnar
// decoders) then never allocate.
func (c *Columns) Grow(n int) {
	if cap(c.Offs) < n {
		c.Offs = make([]uint64, n)
	}
	if words := (n + 63) >> 6; cap(c.Writes) < words {
		c.Writes = make([]uint64, words)
	}
	if cap(c.OpEnds) < n {
		c.OpEnds = make([]int32, 0, n)
	}
}

// Clear readies the columns for a fresh batch of up to n accesses: Offs
// is resized to n (fillers shrink it to the produced count), the write
// bitset words covering n bits are zeroed, and OpEnds is emptied. The
// caller must have Grown the columns to at least n.
//
//m5:hotpath
func (c *Columns) Clear(n int) {
	c.Offs = c.Offs[:n]
	w := c.Writes[:(n+63)>>6]
	for i := range w {
		w[i] = 0
	}
	c.Writes = w
	c.OpEnds = c.OpEnds[:0]
}

// ColumnarGenerator is implemented by generators that can fill Columns
// directly — tape cursors decode their committed blocks into the packed
// arrays with no per-access struct materialization. NextColumns returns
// the number of accesses produced (0 = stream end), or -1 when the
// columnar path is unavailable for this call (e.g. a tape cursor that
// outran its tape onto a private live generator) and the caller must fall
// back to NextBatch; the access stream is element-for-element identical
// across both paths.
type ColumnarGenerator interface {
	Generator
	NextColumns(c *Columns, max int) int
}

// Transpose converts a row-form batch into columnar form (a full refill:
// previous contents are discarded). The caller must have Grown c to at
// least len(batch).
//
//m5:hotpath
func Transpose(batch []Access, c *Columns) {
	c.Clear(len(batch))
	offs := c.Offs
	ops := c.OpEnds
	for i := range batch {
		offs[i] = batch[i].Offset
		if batch[i].Write {
			c.Writes[uint(i)>>6] |= 1 << (uint(i) & 63)
		}
		if batch[i].OpEnd {
			ops = append(ops, int32(i))
		}
	}
	c.OpEnds = ops
}

// NextColumns fills c with the next batch of up to max accesses from g,
// preferring the generator's columnar path and falling back to a
// NextBatch into scratch (which must hold max accesses) plus a Transpose.
// Like NextBatch, a return of 0 means the stream has ended.
//
//m5:hotpath
func NextColumns(g Generator, scratch []Access, c *Columns, max int) int {
	if cg, ok := g.(ColumnarGenerator); ok {
		if n := cg.NextColumns(c, max); n >= 0 {
			c.Offs = c.Offs[:n]
			return n
		}
	}
	n := NextBatch(g, scratch[:max])
	Transpose(scratch[:n], c)
	return n
}

// ColumnarSkipper is implemented by generators that can discard a span of
// accesses without materializing it — tape cursors jump whole committed
// blocks in O(1) and walk only partial-block varints. SkipColumns returns
// how many accesses were discarded (0 = stream end) plus whether any
// operation boundary was crossed, or n = -1 when skipping is unavailable
// for this call (same contract as ColumnarGenerator.NextColumns) and the
// caller must fall back to a materializing read. Skipping advances the
// stream position exactly as consuming the same accesses would.
type ColumnarSkipper interface {
	Generator
	SkipColumns(max int) (n int, ops bool)
}

// SkipColumns discards up to max accesses from g, preferring the
// generator's skip path and falling back to NextColumns into cols (which
// the caller must have Grown to max). The stream position afterwards is
// identical across both paths; only the materialization is avoided. It
// returns the count discarded and whether an operation boundary was
// crossed.
//
//m5:hotpath
func SkipColumns(g Generator, scratch []Access, cols *Columns, max int) (int, bool) {
	if s, ok := g.(ColumnarSkipper); ok {
		if n, ops := s.SkipColumns(max); n >= 0 {
			return n, ops
		}
	}
	n := NextColumns(g, scratch, cols, max)
	return n, len(cols.OpEnds) > 0
}

// Checkpoint is a generator's replay state: catalog identity plus stream
// position. Generators are deterministic functions of (Name, Scale, Seed),
// so the position fully determines the remaining stream — NewAt rebuilds
// the instance and fast-forwards, which is how warmed simulator
// checkpoints fork fresh copies of their access stream.
type Checkpoint struct {
	Name  string
	Scale Scale
	Seed  int64
	// Consumed is how many accesses have been drawn from the stream.
	Consumed uint64
}

// Checkpointer is implemented by generators whose stream position can be
// captured for deterministic replay.
type Checkpointer interface {
	// Checkpoint returns the replay state; ok=false when the generator
	// was not built through the catalog (New) and cannot be rebuilt.
	Checkpoint() (Checkpoint, bool)
}

// Reopener is implemented by generators that can cheaply produce an
// independent second generator positioned at an absolute stream offset —
// cheaper than NewAt's rebuild-and-fast-forward. Tape cursors are the
// canonical implementation: reopening is an index seek into the recorded
// stream. The reopened generator emits exactly the stream a fresh catalog
// instance would emit after consuming the first `consumed` accesses.
type Reopener interface {
	ReopenAt(consumed uint64) (Generator, error)
}

// CheckpointOf captures g's replay state when supported.
func CheckpointOf(g Generator) (Checkpoint, bool) {
	if c, ok := g.(Checkpointer); ok {
		return c.Checkpoint()
	}
	return Checkpoint{}, false
}

// NewAt rebuilds a generator from a checkpoint: a fresh catalog instance
// fast-forwarded past the consumed prefix, emitting exactly the stream the
// checkpointed generator would emit next.
func NewAt(cp Checkpoint) (Generator, error) {
	g, err := New(cp.Name, cp.Scale, cp.Seed)
	if err != nil {
		return nil, err
	}
	var buf [batchSize]Access
	for left := cp.Consumed; left > 0; {
		want := uint64(len(buf))
		if left < want {
			want = left
		}
		n := NextBatch(g, buf[:want])
		if n == 0 {
			g.Close()
			return nil, fmt.Errorf("workload: %q stream ended %d accesses before checkpoint position", cp.Name, left)
		}
		left -= uint64(n)
	}
	return g, nil
}

// Array is a typed region inside a workload arena: element i lives at
// Base + i*Elem. Workload kernels address their data structures through
// Arrays so the emitted offsets mirror the real memory layout.
type Array struct {
	Base uint64
	Elem uint64
	N    uint64
}

// At returns the byte offset of element i. It panics on out-of-bounds
// access — a kernel bug.
func (a Array) At(i uint64) uint64 {
	if i >= a.N {
		panic(fmt.Sprintf("workload: index %d out of range (array of %d)", i, a.N))
	}
	return a.Base + i*a.Elem
}

// Size returns the array extent in bytes.
func (a Array) Size() uint64 { return a.N * a.Elem }

// Layout assigns consecutive page-aligned arrays inside an arena.
type Layout struct {
	next uint64
}

// Place reserves a page-aligned array of n elements of elem bytes.
func (l *Layout) Place(n, elem uint64) Array {
	a := Array{Base: l.next, Elem: elem, N: n}
	l.next += a.Size()
	// Page-align the next array so arrays never share pages.
	const pageMask = 4096 - 1
	l.next = (l.next + pageMask) &^ uint64(pageMask)
	return a
}

// Footprint returns the total bytes reserved so far.
func (l *Layout) Footprint() uint64 { return l.next }
