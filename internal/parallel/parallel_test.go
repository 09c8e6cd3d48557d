package parallel

import (
	"errors"
	"fmt"
	"testing"
)

func TestMapOrdersResultsLikeSerial(t *testing.T) {
	const n = 100
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 8, 64, 0} {
		got, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	bad := map[int]bool{7: true, 23: true, 61: true}
	for _, workers := range []int{1, 8} {
		_, err := Map(workers, 100, func(i int) (int, error) {
			if bad[i] {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 7" {
			t.Fatalf("workers=%d: err=%v, want cell 7", workers, err)
		}
	}
}

// TestMapContainsPanics pins that a panicking cell fails Map with an
// error instead of crashing, serially and on a worker pool, and that the
// lowest failing index still decides which failure is reported.
func TestMapContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 100, func(i int) (int, error) {
			switch i {
			case 31:
				panic("bad cell")
			case 64:
				return 0, errors.New("cell 64")
			}
			return i, nil
		})
		if want := "parallel: cell 31 panicked: bad cell"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: err=%v, want %q", workers, err, want)
		}
		_, err = Map(workers, 100, func(i int) (int, error) {
			switch i {
			case 12:
				return 0, errors.New("cell 12")
			case 40:
				var m map[int]int
				m[i] = i // nil-map write: a runtime panic
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 12" {
			t.Errorf("workers=%d: err=%v, want cell 12", workers, err)
		}
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	// All cells past the failing one that were not already dispatched
	// must be skipped; we can't assert an exact count (in-flight cells
	// finish), but dispatch must terminate and the error must surface.
	sentinel := errors.New("boom")
	_, err := Map(4, 10_000, func(i int) (int, error) {
		if i == 0 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v, want %v", err, sentinel)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("Workers(3)")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("Workers must be >= 1")
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	a := DeriveSeed(42, "redis", "m5", "0")
	if a != DeriveSeed(42, "redis", "m5", "0") {
		t.Fatal("DeriveSeed not stable")
	}
	seen := map[int64]string{}
	for _, parts := range [][]string{
		{"redis", "m5", "0"},
		{"redis", "m5", "1"},
		{"redis", "anb", "0"},
		{"mcf", "m5", "0"},
		{"redism5", "0"}, // concatenation must not collide
		{},
	} {
		s := DeriveSeed(42, parts...)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %v", prev, parts)
		}
		seen[s] = fmt.Sprint(parts)
		if s == 0 {
			t.Fatal("DeriveSeed returned 0")
		}
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Fatal("base seed ignored")
	}
}
