// Command perfbench is the repository benchmark: it runs one workload
// from a single process, measures it end to end (or, with --trace 1,
// layer by layer), checks the simulator's outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"cpu_s": {"value": 20.1, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig9-exact --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects one run's operations, check failures and metrics.
type outcome struct {
	attempted, failed int
	problems          []string // failed checks that are not one operation's
	metrics           map[string]metric
	notes             []string // human-readable detail printed before the JSON line
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric. A name or unit outside the allowed character set
// is a bug in the benchmark, so it panics; a value that is not a finite
// number fails the run's checks instead of reaching the JSON line.
func (o *outcome) set(name string, v float64, unit string) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("perfbench: bad metric name %q or unit %q", name, unit))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.problem("metric %s is %v", name, v)
		return
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation, failed when err is non-nil.
func (o *outcome) op(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
}

// problem records a failed check that belongs to no single operation.
func (o *outcome) problem(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
}

func (o *outcome) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// unreached prints each named metric as 0, in its manifest unit: the
// workload does not reach that layer. A note lists them, so the zeros are
// not read as measurements.
func (o *outcome) unreached(names ...string) {
	for _, n := range names {
		o.set(n, 0, manifest[n])
	}
	o.notef("not reached by this workload, printed as 0: %s", strings.Join(names, ", "))
}

// manifest maps every metric this run must print to its unit: the
// end_to_end or per_layer list of BENCHMARK.json, by --trace.
var manifest map[string]string

// loadManifest reads the metric list for one kind of run from a
// BENCHMARK.json file.
func loadManifest(path string, traced bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := f.EndToEnd
	if traced {
		list = f.PerLayer
	}
	m := map[string]string{}
	for _, e := range list {
		m[e.Name] = e.Unit
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	return m, nil
}

// opts are the command-line settings every workload receives.
type opts struct {
	seed    int64
	seconds int
}

// workloadDef is one benchmark workload: its untraced and traced runs.
type workloadDef struct {
	run   func(opts) (*outcome, error)
	trace func(opts) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"fig9-exact":   {run: func(o opts) (*outcome, error) { return runFig9(o, false) }, trace: func(o opts) (*outcome, error) { return traceFig9(o, false) }},
	"fig9-sampled": {run: func(o opts) (*outcome, error) { return runFig9(o, true) }, trace: func(o opts) (*outcome, error) { return traceFig9(o, true) }},
	"serve-sec42":  {run: runServe, trace: traceServe},
}

func workloadNames() []string { return sortedKeys(workloads) }

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (one of "+strings.Join(workloadNames(), ", ")+")")
		seed      = flag.Int64("seed", 1, "workload seed; every per-call seed derives from it")
		secs      = flag.Int("seconds", 20, "approximate length of the timed phase; sets how much work a run does")
		traceFlag = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics instead of the end-to-end ones")
		writeRefs = flag.String("write-refs", "", "write fig9 reference digests for the shipped seeds to this file and exit")
	)
	flag.Parse()
	debug.SetGCPercent(400) // as cmd/m5bench and cmd/m5serve run

	o := opts{seed: *seed, seconds: *secs}
	if *writeRefs != "" {
		if err := writeRefFile(*writeRefs, o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	def, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	var err error
	if manifest, err = loadManifest("BENCHMARK.json", *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		os.Exit(2)
	}

	start := time.Now()
	run := def.run
	if *traceFlag == 1 {
		run = def.trace
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", *name, *seed, time.Since(start).Seconds())
	emit(out)
}

// emit checks the metrics against the manifest, then prints them one per
// line, the notes, and the JSON line. A metric missing from the run, in
// another unit, or not in the manifest fails the run's checks; the JSON
// line holds only manifest metrics.
func emit(out *outcome) {
	for _, n := range sortedKeys(manifest) {
		if m, ok := out.metrics[n]; !ok {
			out.problem("metric %s was not measured", n)
		} else if m.Unit != manifest[n] {
			out.problem("metric %s is in %s, BENCHMARK.json says %s", n, m.Unit, manifest[n])
		}
	}
	for _, n := range sortedKeys(out.metrics) {
		if _, ok := manifest[n]; !ok {
			out.problem("metric %s is not in BENCHMARK.json", n)
			delete(out.metrics, n)
		}
	}
	for _, n := range sortedKeys(out.metrics) {
		m := out.metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	rep := report{
		Correct:   out.failed == 0 && len(out.problems) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Println(string(b))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
