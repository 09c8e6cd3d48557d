package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified; an empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidate tail ranks, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail rank.
const minBeyond = 10

// tail is one reported tail latency: the percentile it sits at, its
// value, the sample count, and how many samples lie beyond it.
type tail struct {
	Pct     float64
	Value   float64
	Samples int
	Beyond  int
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples (%d beyond)", t.Pct, t.Samples, t.Beyond)
}

// tailOf returns the highest candidate percentile with at least
// minBeyond samples strictly after its nearest-rank position; ok is
// false when even the median has fewer than minBeyond beyond it.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, q := range tailPercentiles {
		// 1-based nearest rank; the epsilon keeps q*n/100 from rounding up
		// past an exact integer (0.9*120 is 108.00000000000001).
		rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return tail{Pct: q, Value: s[rank-1], Samples: n, Beyond: n - rank}, true
	}
	return tail{Samples: n}, false
}

// deciles renders the nearest-rank 10th..90th percentiles and the
// maximum of xs, for a latency dump.
func deciles(xs []float64) string {
	if len(xs) == 0 {
		return "no samples"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var b strings.Builder
	for q := 10; q <= 90; q += 10 {
		fmt.Fprintf(&b, "p%d %.1f, ", q, s[max(0, (q*len(s)+99)/100-1)])
	}
	fmt.Fprintf(&b, "max %.1f", s[len(s)-1])
	return b.String()
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// usage is one getrusage sample of this process.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // peak resident set, KiB
}

func rusage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, maxRSS: ru.Maxrss}
}

// phase records the wall and process CPU seconds of each unit of a timed
// phase: one harness call, or one block of queries.
type phase struct {
	walls, cpus []float64
}

// measure runs f as one unit of the phase.
func (p *phase) measure(f func()) {
	u0, t0 := rusage(), time.Now()
	f()
	p.walls = append(p.walls, time.Since(t0).Seconds())
	p.cpus = append(p.cpus, (rusage().cpu - u0.cpu).Seconds())
}

// wall and cpu estimate the phase's totals as the unit count times the
// median unit, so a burst of host noise (another tenant, CPU steal) during
// a minority of units does not move them.
func (p *phase) wall() float64 { return float64(len(p.walls)) * median(p.walls) }
func (p *phase) cpu() float64  { return float64(len(p.cpus)) * median(p.cpus) }

// probeSink keeps the host probe's result live.
var probeSink uint64

// refLoop is a fixed pure-Go integer loop: a dependent xorshift chain
// that neither allocates nor touches memory beyond registers, so its time
// tracks only the host core's speed.
func refLoop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(t0)
}

// hostProbe times the reference loop five times and returns the median
// in milliseconds.
func hostProbe() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		ms = append(ms, float64(refLoop().Nanoseconds())/1e6)
	}
	return median(ms)
}

// mb converts KiB to MB (10^6 bytes).
func mb(kib int64) float64 { return float64(kib) * 1024 / 1e6 }

// durMs renders a duration in milliseconds.
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
