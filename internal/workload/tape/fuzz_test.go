package tape

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"m5/internal/workload"
)

// craftTape serializes a standalone tape holding the given blocks. The
// checksum is valid however malformed the blocks are, so only ReadTape's
// own validation stands between them and a replay cursor.
func craftTape(t testing.TB, blocks ...*block) []byte {
	t.Helper()
	tp := newTape(Key{Name: "roms", Scale: workload.ScaleTiny, Seed: 1}, nil)
	tp.inited = true
	tp.wlName = "roms"
	tp.footprint = 1 << 20
	var total uint64
	for _, b := range blocks {
		total += uint64(b.n)
	}
	tp.committed.Store(&snapshot{blocks: blocks, total: total})
	var buf bytes.Buffer
	if _, err := tp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sampleBlock encodes a short block with forward and backward offset
// deltas, multi-byte varints, writes and three op boundaries.
func sampleBlock() *block {
	accs := make([]workload.Access, 100)
	for i := range accs {
		accs[i] = workload.Access{
			Offset: uint64(i*4096) ^ uint64(i%7)<<20,
			Write:  i%3 == 0,
			OpEnd:  i == 0 || i == 40 || i == 99,
		}
	}
	return encodeBlock(accs)
}

// TestReadTapeRejectsMalformedBlocks feeds ReadTape blocks that carry a
// valid checksum but do not decode in bounds. A tape that slipped through
// used to panic in the cursor's decoder on replay; each must now be an
// import error.
func TestReadTapeRejectsMalformedBlocks(t *testing.T) {
	good := sampleBlock()
	tp, err := ReadTape(bytes.NewReader(craftTape(t, good)))
	if err != nil {
		t.Fatalf("well-formed block rejected: %v", err)
	}
	drain(t, tp.NewCursor(), int(tp.Len()))

	with := func(edit func(b *block)) *block {
		b := *good
		b.offs = append([]byte(nil), good.offs...)
		b.opEnds = append([]byte(nil), good.opEnds...)
		edit(&b)
		return &b
	}
	cases := map[string]*block{
		"offsets-one-delta-short": with(func(b *block) { b.offs = b.offs[:len(b.offs)-1] }),
		"offsets-trailing-delta":  with(func(b *block) { b.offs = append(b.offs, 2) }),
		"offsets-unterminated":    with(func(b *block) { b.offs[len(b.offs)-1] |= 0x80 }),
		"op-past-block":           with(func(b *block) { b.opEnds = binary.AppendUvarint(b.opEnds, 1) }),
		"op-first-past-block":     with(func(b *block) { b.opEnds = binary.AppendUvarint(nil, 100) }),
		"op-repeated":             with(func(b *block) { b.opEnds = binary.AppendUvarint(b.opEnds[:1], 0) }),
		"op-unterminated":         with(func(b *block) { b.opEnds = append(b.opEnds, 0x80) }),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			tp, err := ReadTape(bytes.NewReader(craftTape(t, bad)))
			if err == nil {
				// Replay what was accepted: this is where a malformed
				// block used to panic.
				drain(t, tp.NewCursor(), int(tp.Len()))
				t.Fatal("malformed block accepted")
			}
		})
	}
}

// FuzzReadTape feeds arbitrary bytes to ReadTape, both as a whole file
// and as a body with a freshly computed checksum appended (so mutations
// reach block validation instead of dying at the CRC). No input may
// panic, and every accepted tape must replay through a cursor to exactly
// its declared length.
func FuzzReadTape(f *testing.F) {
	// Seeds stay small: a recorded 4096-access block makes every
	// mutation and minimization step orders of magnitude slower.
	short := sampleBlock()
	short.offs = short.offs[:len(short.offs)-1]
	for _, seed := range [][]byte{craftTape(f, sampleBlock()), craftTape(f, short), fileMagic, {}} {
		f.Add(seed)
		if len(seed) >= 4 {
			f.Add(seed[:len(seed)-4])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resummed := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.ChecksumIEEE(data))
		for _, in := range [][]byte{data, resummed} {
			tp, err := ReadTape(bytes.NewReader(in))
			if err != nil {
				continue
			}
			out := make([]workload.Access, 4096)
			c := tp.NewCursor()
			for left := tp.Len(); left > 0; {
				want := min(left, uint64(len(out)))
				got := c.NextBatch(out[:want])
				if uint64(got) != want {
					t.Fatalf("cursor returned %d of %d accesses with %d left", got, want, left)
				}
				left -= want
			}
			c.Close()
			tp.Close()
		}
	})
}
