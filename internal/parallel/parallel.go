// Package parallel is the shared experiment fan-out engine. Every
// figure/table harness in internal/experiments decomposes into
// independent (benchmark × policy × point) cells, each a pure function
// of its parameters and seed; Map runs those cells across a worker pool
// and reassembles results in submission order, so parallel runs are
// bit-identical to serial ones regardless of scheduling.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested worker count: n <= 0 means "use every
// core" (runtime.NumCPU), anything else is taken as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Map evaluates f(0..n-1) on up to `workers` goroutines and returns the
// results indexed by input, exactly as a serial loop would produce
// them. Work is handed out via an atomic counter (work-stealing, no
// per-cell channel traffic). If any f returns an error, dispatch stops
// and Map reports the error from the lowest failing index, so the
// reported failure is deterministic too. A cell that panics fails with
// an error instead, so one bad cell cannot take down the process (an
// m5serve together with its warmed checkpoint tree).
func Map[T any](workers, n int, f func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers <= 1 {
		// Serial fast path: no goroutines, no atomics.
		for i := 0; i < n; i++ {
			v, err := call(f, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next    atomic.Int64
		failIdx atomic.Int64
		mu      sync.Mutex
		firstE  error
		wg      sync.WaitGroup
	)
	failIdx.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || int64(i) > failIdx.Load() {
					return
				}
				v, err := call(f, i)
				if err != nil {
					mu.Lock()
					if int64(i) < failIdx.Load() {
						failIdx.Store(int64(i))
						firstE = err
					}
					mu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstE != nil {
		return nil, firstE
	}
	return out, nil
}

// call runs one cell, turning a panic into that cell's error.
func call[T any](f func(i int) (T, error), i int) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("parallel: cell %d panicked: %v", i, p)
		}
	}()
	return f(i)
}

// DeriveSeed folds a cell identity (benchmark name, policy, sweep
// point, ...) into a base seed. Each distinct part list yields a
// distinct, stable stream seed, so cells drawn from one base seed are
// decorrelated without any run-order dependence.
func DeriveSeed(base int64, parts ...string) int64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 0x100000001b3
		}
		h ^= 0xff // part separator so ("ab","c") != ("a","bc")
		h *= 0x100000001b3
	}
	// splitmix64 finalizer for avalanche.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	s := int64(uint64(base) ^ h)
	if s == 0 {
		s = int64(h | 1)
	}
	return s
}
