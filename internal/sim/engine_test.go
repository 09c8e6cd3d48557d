package sim

import (
	"reflect"
	"testing"

	m5mgr "m5/internal/m5"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// runUnbatched mirrors Run's span accounting but advances the machine one
// access per StepBatch call — the reference the full-batch engine must
// match exactly.
func runUnbatched(r *Runner, n int) Result {
	span := r.beginSpan()
	for i := 0; i < n; i++ {
		if r.StepBatch(1) == 0 {
			break
		}
	}
	return r.endSpan(span)
}

// countingSink records how many DRAM accesses it observed; it adds no
// simulated time, so batched and unbatched runs must feed it identically.
type countingSink struct {
	n    uint64
	last trace.Access
}

func (s *countingSink) Observe(a trace.Access) { s.n++; s.last = a }

// TestStepBatchMatchesStep pins the batched engine's equivalence claim:
// Run (which drives full batches) and a StepBatch(1) loop produce
// byte-identical Results from identical machines — including the
// daemon-tick, op-latency, and miss-sink paths the batched loop guards.
func TestStepBatchMatchesStep(t *testing.T) {
	build := func(bench string, withDaemon, withSink bool) (*Runner, *countingSink) {
		wl := workload.MustNew(bench, workload.ScaleTiny, 9)
		r, err := NewRunner(Config{
			Workload: wl,
			HPT:      &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 128, K: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		var sink *countingSink
		if withSink {
			sink = &countingSink{}
			r.AttachMissSink(sink)
		}
		if withDaemon {
			r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
		}
		return r, sink
	}
	cases := []struct {
		name   string
		bench  string
		daemon bool
		sink   bool
	}{
		{"bare", "roms", false, false},
		{"kvs-daemon-sink", "redis", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400_000
			batched, bSink := build(tc.bench, tc.daemon, tc.sink)
			unbatched, uSink := build(tc.bench, tc.daemon, tc.sink)
			got := batched.Run(n)
			want := runUnbatched(unbatched, n)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("batched Run diverged from StepBatch(1) loop:\n got %+v\nwant %+v", got, want)
			}
			if batched.clockNs != unbatched.clockNs {
				t.Errorf("clock diverged: %d vs %d", batched.clockNs, unbatched.clockNs)
			}
			if tc.sink {
				if bSink.n == 0 {
					t.Fatal("sink saw no traffic")
				}
				if bSink.n != uSink.n || bSink.last != uSink.last {
					t.Errorf("sink streams diverged: %d/%+v vs %d/%+v", bSink.n, bSink.last, uSink.n, uSink.last)
				}
			}
		})
	}
}

// TestRunBatchZeroAllocs pins the batched hot loop at zero allocations per
// batch once the machine is warm: the engine reuses its access buffer and
// scratch trace record, and every layer below it (cache, TLB, nodes,
// trackers) runs on preallocated state.
func TestRunBatchZeroAllocs(t *testing.T) {
	wl := workload.MustNew("roms", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{
		Workload: wl,
		HPT:      &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 128, K: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Run(200_000) // fault in the arena and reach steady state

	buf := make([]workload.Access, runnerBatch)
	n := workload.NextBatch(r.gen, buf)
	if n != runnerBatch {
		t.Fatalf("NextBatch = %d, want %d", n, runnerBatch)
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.runBatch(buf[:n])
	})
	if allocs != 0 {
		t.Errorf("runBatch allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestCheckpointForkDeterminism pins the warmup-sharing contract: a fork
// continues bit-identically to (a) a from-scratch runner warmed the same
// way — including when both install the same daemon at the warmup boundary
// — and (b) the original runner the checkpoint was taken from.
func TestCheckpointForkDeterminism(t *testing.T) {
	const warmup, measure = 150_000, 250_000
	cfg := func() Config {
		return Config{
			Workload: workload.MustNew("roms", workload.ScaleTiny, 1),
			HPT:      &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 128, K: 5},
		}
	}
	warm, err := NewRunner(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warm.Run(warmup)
	cp, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// (a) daemon installed on the fork at the checkpoint == daemon
	// installed on a from-scratch runner at the warmup boundary.
	fork, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	fork.SetDaemon(m5mgr.NewManager(fork.Sys, fork.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	scratch, err := NewRunner(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.Close()
	scratch.Run(warmup)
	scratch.SetDaemon(m5mgr.NewManager(scratch.Sys, scratch.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	forkRes, scratchRes := fork.Run(measure), scratch.Run(measure)
	if !reflect.DeepEqual(forkRes, scratchRes) {
		t.Errorf("fork diverged from from-scratch warmup:\n got %+v\nwant %+v", forkRes, scratchRes)
	}
	if forkRes.Promotions == 0 {
		t.Error("daemon on fork migrated nothing — test exercises too little")
	}

	// (b) a bare fork continues exactly like the original runner.
	fork2, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork2.Close()
	origRes, fork2Res := warm.Run(measure), fork2.Run(measure)
	if !reflect.DeepEqual(origRes, fork2Res) {
		t.Errorf("fork diverged from original:\n got %+v\nwant %+v", fork2Res, origRes)
	}
}

// TestCheckpointRefusesExternalState: state the deep clone cannot reach
// must be rejected, not silently dropped.
func TestCheckpointRefusesExternalState(t *testing.T) {
	t.Run("daemon", func(t *testing.T) {
		r := newRunner(t, "roms", Config{})
		r.SetDaemon(stubPolicy{})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("daemon-carrying runner must refuse to checkpoint")
		}
	})
	t.Run("miss-sink", func(t *testing.T) {
		r := newRunner(t, "roms", Config{})
		r.AttachMissSink(&countingSink{})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("sink-carrying runner must refuse to checkpoint")
		}
	})
	t.Run("word-remap", func(t *testing.T) {
		r := newRunner(t, "roms", Config{})
		r.SetWordRemap(identityRemap{})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("remapper-carrying runner must refuse to checkpoint")
		}
	})
	t.Run("metrics-registry", func(t *testing.T) {
		r := newRunner(t, "roms", Config{Metrics: obs.New()})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("registry-carrying runner must refuse to checkpoint")
		}
	})
}

// identityRemap serves every word from its home tier at no extra cost.
type identityRemap struct{}

func (identityRemap) Serve(_ mem.WordNum, home tiermem.NodeID) (tiermem.NodeID, uint64) {
	return home, 0
}

func benchRunner(b *testing.B) *Runner {
	b.Helper()
	wl := workload.MustNew("roms", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	r.Run(100_000) // fault in the arena so the loop measures steady state
	return r
}

func BenchmarkRunnerStepBatch(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	for left := b.N; left > 0; {
		did := r.StepBatch(left)
		if did == 0 {
			b.Fatal("stream ended")
		}
		left -= did
	}
}

// stubPolicy is the smallest possible Daemon (= tiermem.Policy): it shows
// the checkpoint gate fires on any installed daemon, not just real ones.
type stubPolicy struct{}

func (stubPolicy) Name() string               { return "stub" }
func (stubPolicy) PeriodNs() uint64           { return 1_000_000 }
func (stubPolicy) Tick(uint64)                {}
func (stubPolicy) Stats() tiermem.PolicyStats { return tiermem.PolicyStats{} }
