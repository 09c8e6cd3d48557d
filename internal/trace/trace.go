// Package trace defines the cache-filtered DRAM access stream that flows
// between the components of the M5 reproduction. It plays the role the
// Pin+Ramulator trace collection plays in §7.1 of the paper: a sequence of
// time-stamped physical addresses issued to (CXL or DDR) DRAM.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"m5/internal/mem"
)

// Access is one DRAM access: a 64B-word-granularity read or write at a
// simulated time (nanoseconds since the start of the run).
type Access struct {
	// Time is the simulation timestamp in nanoseconds.
	Time uint64
	// Addr is the physical byte address accessed (word-aligned by
	// producers; consumers only look at Addr.Word() / Addr.Page()).
	Addr mem.PhysAddr
	// Write marks a write access. Under the write-allocate policy both
	// reads and writes first fetch the line, so counters treat them alike,
	// but the flag is preserved for policies that care.
	Write bool
}

// Source produces a stream of accesses. Next returns ok=false when the
// stream is exhausted.
type Source interface {
	Next() (Access, bool)
}

// Sink consumes accesses one at a time. PAC, WAC, HPT, HWT, and the DRAM
// bandwidth monitors all implement Sink.
type Sink interface {
	Observe(Access)
}

// WeightedSink is implemented by sinks that can record one access n times
// in O(1). ObserveN(a, n) must leave the sink in the same observable state
// as n consecutive Observe(a) calls; the simulator's sampled tier uses it
// to credit the traffic of thinned-away batches (Horvitz-Thompson
// weighting) without replaying the sink work n times.
type WeightedSink interface {
	Sink
	// ObserveN records the access n times.
	ObserveN(a Access, n uint64)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Access)

// Observe implements Sink.
func (f SinkFunc) Observe(a Access) { f(a) }

// Tee fans one access out to several sinks, mirroring the AFU snoop path of
// Figure 2 where PAC/WAC observe the same address stream the MC serves.
type Tee []Sink

// Observe implements Sink by forwarding to every sink in order.
//
//m5:hotpath
func (t Tee) Observe(a Access) {
	for _, s := range t {
		s.Observe(a)
	}
}

// ObserveN implements WeightedSink: sinks that support weighted observes
// get one O(1) call; the rest replay n sequential Observes, so the fan-out
// is state-equivalent either way.
//
//m5:hotpath
func (t Tee) ObserveN(a Access, n uint64) {
	for _, s := range t {
		if w, ok := s.(WeightedSink); ok {
			w.ObserveN(a, n)
			continue
		}
		for i := uint64(0); i < n; i++ {
			s.Observe(a)
		}
	}
}

// SliceSource replays a recorded trace.
type SliceSource struct {
	accesses []Access
	pos      int
}

// NewSliceSource wraps a slice of accesses (not copied).
func NewSliceSource(accesses []Access) *SliceSource {
	return &SliceSource{accesses: accesses}
}

// Next implements Source.
func (s *SliceSource) Next() (Access, bool) {
	if s.pos >= len(s.accesses) {
		return Access{}, false
	}
	a := s.accesses[s.pos]
	s.pos++
	return a, true
}

// Rewind restarts the source from the beginning.
func (s *SliceSource) Rewind() { s.pos = 0 }

// Len returns the total number of accesses in the trace.
func (s *SliceSource) Len() int { return len(s.accesses) }

// Drain pushes every access from src into sink and returns the count.
func Drain(src Source, sink Sink) int {
	n := 0
	for {
		a, ok := src.Next()
		if !ok {
			return n
		}
		sink.Observe(a)
		n++
	}
}

// Collect gathers up to max accesses from a source (max <= 0 means all).
func Collect(src Source, max int) []Access {
	var out []Access
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// Binary trace file format: 8-byte magic+version header followed by fixed
// 17-byte little-endian records (time, addr, flags).
const (
	magic   = "M5TRACE"
	version = byte(1)
)

var errBadMagic = errors.New("trace: bad magic or unsupported version")

const recordSize = 8 + 8 + 1

// Writer serializes accesses to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	buf [recordSize]byte
	n   uint64
}

// NewWriter writes the header and returns a Writer. Close must be called to
// flush buffered records.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one access record.
func (w *Writer) Write(a Access) error {
	binary.LittleEndian.PutUint64(w.buf[0:8], a.Time)
	binary.LittleEndian.PutUint64(w.buf[8:16], uint64(a.Addr))
	w.buf[16] = 0
	if a.Write {
		w.buf[16] = 1
	}
	w.n++
	_, err := w.w.Write(w.buf[:])
	return err
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.n }

// Close flushes buffered records. The underlying writer is not closed.
func (w *Writer) Close() error { return w.w.Flush() }

// NewCompressedWriter wraps the writer in gzip before the trace encoding;
// recorded traces compress well (timestamps and addresses are strongly
// correlated). Close flushes both layers.
func NewCompressedWriter(w io.Writer) (*CompressedWriter, error) {
	gz := gzip.NewWriter(w)
	tw, err := NewWriter(gz)
	if err != nil {
		return nil, err
	}
	return &CompressedWriter{Writer: tw, gz: gz}, nil
}

// CompressedWriter is a Writer over a gzip stream.
type CompressedWriter struct {
	*Writer
	gz *gzip.Writer
}

// Close flushes the trace buffer and the gzip stream.
func (w *CompressedWriter) Close() error {
	if err := w.Writer.Close(); err != nil {
		return err
	}
	return w.gz.Close()
}

// NewCompressedReader opens a gzip-compressed trace.
func NewCompressedReader(r io.Reader) (*Reader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
	}
	return NewReader(gz)
}

// Reader deserializes accesses from an io.Reader and implements Source.
type Reader struct {
	r   *bufio.Reader
	buf [recordSize]byte
	err error
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic || head[len(magic)] != version {
		return nil, errBadMagic
	}
	return &Reader{r: br}, nil
}

// Next implements Source. After exhaustion, Err reports any non-EOF error.
func (r *Reader) Next() (Access, bool) {
	if r.err != nil {
		return Access{}, false
	}
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err != io.EOF {
			r.err = err
		}
		return Access{}, false
	}
	return Access{
		Time:  binary.LittleEndian.Uint64(r.buf[0:8]),
		Addr:  mem.PhysAddr(binary.LittleEndian.Uint64(r.buf[8:16])),
		Write: r.buf[16] != 0,
	}, true
}

// Err returns the first non-EOF error encountered while reading.
func (r *Reader) Err() error { return r.err }
