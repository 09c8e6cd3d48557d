package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"m5/internal/experiments"
	"m5/internal/obs"
	"m5/internal/workload/tape"
)

// fig9Shape names the call shape the references were recorded with.
var fig9Shape = fmt.Sprintf("fig9 tiny warmup=%d accesses=%d", fig9Warmup, fig9Accesses)

//go:embed refs/fig9.json
var refsJSON []byte

// refCall is the shipped reference for one call seed.
type refCall struct {
	Exact   string    `json:"exact_sha256"`
	Sampled string    `json:"sampled_sha256"`
	Norms   []float64 `json:"exact_norms"`
}

// refFile is refs/fig9.json: per call seed, the digests of the exact and
// sampled fig9 Results and the exact normalized cells, plus the fig9
// metrics and obs of BENCH_PR8.json (recorded at seed 1, same shape).
type refFile struct {
	Shape    string             `json:"shape"`
	Calls    map[string]refCall `json:"calls"`
	BenchPR8 struct {
		Metrics map[string]float64 `json:"metrics"`
		Obs     *obs.Snapshot      `json:"obs"`
	} `json:"bench_pr8_seed1"`
}

func loadRefs() (*refFile, error) {
	var r refFile
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs/fig9.json: %w", err)
	}
	if r.Shape != fig9Shape {
		return nil, fmt.Errorf("refs/fig9.json holds %q, want %q", r.Shape, fig9Shape)
	}
	return &r, nil
}

// check compares a call's Result with the shipped reference for its
// seed, when there is one: byte-identical JSON, and at seed 1 the exact
// metrics and obs of BENCH_PR8.json.
func (r *refFile) check(seed int64, res *experiments.Result, sampled bool) error {
	c, ok := r.Calls[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	want, tier := c.Exact, "exact"
	if sampled {
		want, tier = c.Sampled, "sampled"
	}
	if got := digest(res); want != "" && got != want {
		return fmt.Errorf("%s result digest %s, reference %s", tier, got, want)
	}
	if sampled || seed != 1 {
		return nil
	}
	if a, b := mustJSON(res.Metrics), mustJSON(r.BenchPR8.Metrics); a != b {
		return fmt.Errorf("metrics differ from BENCH_PR8.json:\n got %s\nwant %s", a, b)
	}
	if a, b := mustJSON(res.Obs), mustJSON(r.BenchPR8.Obs); a != b {
		return fmt.Errorf("obs differ from BENCH_PR8.json:\n got %s\nwant %s", a, b)
	}
	return nil
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data
	}
	return string(b)
}

// The workload seeds refs/fig9.json covers, inclusive.
const refSeedFirst, refSeedLast = 0, 10

// writeRefFile records references for every call the fig9 workloads make
// at o.seconds, for each shipped workload seed. It reads BENCH_PR8.json
// from the current directory for the seed-1 record.
func writeRefFile(path string, o opts) error {
	calls := max(fig9Calls(o.seconds, false), fig9Calls(o.seconds, true))
	out := refFile{Shape: fig9Shape, Calls: map[string]refCall{}}
	b, err := os.ReadFile("BENCH_PR8.json")
	if err != nil {
		return err
	}
	var pr8 struct {
		Harnesses []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
			Obs     *obs.Snapshot      `json:"obs"`
		} `json:"harnesses"`
	}
	if err := json.Unmarshal(b, &pr8); err != nil {
		return fmt.Errorf("BENCH_PR8.json: %w", err)
	}
	for _, h := range pr8.Harnesses {
		if h.Name == "fig9" {
			out.BenchPR8.Metrics, out.BenchPR8.Obs = h.Metrics, h.Obs
		}
	}
	for s := int64(refSeedFirst); s <= refSeedLast; s++ {
		for i := 0; i < calls; i++ {
			seed := callSeed(s, i)
			pool := tape.NewPool(0, nil)
			var ref refCall
			for _, sampled := range []bool{false, true} {
				p := fig9Params(seed, pool, sampled)
				p.Parallel = 2
				res, err := experiments.RunHarness("fig9", p)
				if err != nil {
					return fmt.Errorf("seed %d: %w", seed, err)
				}
				if sampled {
					ref.Sampled = digest(res)
					continue
				}
				ref.Exact = digest(res)
				if ref.Norms, err = fig9Norms(res); err != nil {
					return err
				}
			}
			pool.Close()
			out.Calls[strconv.FormatInt(seed, 10)] = ref
			fmt.Fprintf(os.Stderr, "perfbench: reference for call seed %d\n", seed)
		}
	}
	enc, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
