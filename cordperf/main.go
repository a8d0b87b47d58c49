// Command cordperf is the repository's benchmark. It runs one of three
// workloads against the simulator and the model checker, times every call
// into them from outside, checks the simulated outputs against committed
// golden digests, and prints every metric with its unit. The last line of
// its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root (cordperf/run.sh builds and runs it):
//
//	cordperf --workload paper-apps|kv-open|litmus-gate --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of untraced passes; with
// --trace 1 it runs the per-layer ledger instead (see ledger.go). All times
// are host time; simulated quantities appear only as exact counts or inside
// the correctness checks.
//
// Every run checks its simulated outputs pass to pass, and the traced run
// checks them between the untraced, decorated and capture runs. Where
// golden.json (embedded at build time) has digests for the workload and
// seed, every output is also compared with them; it covers seeds 0-10, the
// default 1, and the held-out seed 97. --write-golden PATH records the
// digests of one untraced pass of the workload at the seed into PATH:
//
//	cordperf --workload kv-open --seed 97 --write-golden cordperf/golden.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// validName is the grammar every metric name follows.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload to its untraced and traced runners.
var workloads = map[string]struct {
	untraced, traced func(options, *checks) metricSet
}{
	"paper-apps":  {untracedEngine(paperCases), tracedEngine(paperCases)},
	"kv-open":     {untracedEngine(kvCases), tracedEngine(kvCases)},
	"litmus-gate": {untracedLitmus, tracedLitmus},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cordperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "paper-apps, kv-open or litmus-gate")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the per-layer ledger instead of the end-to-end passes")
	writeGolden := fs.String("write-golden", "", "record one pass's digests into this golden file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "cordperf: need --workload (one of %v), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	o.trace = trace == 1
	if *writeGolden != "" {
		if err := recordPass(o, *writeGolden); err != nil {
			fmt.Fprintln(stderr, "cordperf:", err)
			return 1
		}
		return 0
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "cordperf:", err)
		return 1
	}
	ck := newChecks(g.lookup(o.workload, o.seed))
	if ck.golden == nil {
		fmt.Fprintf(stderr, "cordperf: no golden digests for %s at seed %d; checking run-to-run identity only\n", o.workload, o.seed)
	}
	env := hostEnv(o.workload)
	if !env.ParallelMeasured {
		fmt.Fprintf(stderr, "cordperf: %d workers on %d CPUs: parallel timings are not measured\n", env.Workers, env.NumCPU)
	}
	var m metricSet
	if o.trace {
		m = w.traced(o, ck)
	} else {
		m = w.untraced(o, ck)
	}
	for _, p := range ck.problems {
		fmt.Fprintln(stderr, "cordperf: FAIL", p)
	}
	if err := emit(stdout, env, m, ck); err != nil {
		fmt.Fprintln(stderr, "cordperf:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// env records the host and the parallelism every result was taken with.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Workers is the workload's thread count: sim-workers for the engine
	// workloads, instance workers for the checker.
	Workers int `json:"workers"`
	// ParallelMeasured is false when Workers exceeds the CPUs, in which
	// case any parallel timing is not a measurement.
	ParallelMeasured bool `json:"parallel_measured"`
}

func hostEnv(workload string) env {
	workers := paperWorkers
	switch workload {
	case "kv-open":
		workers = kvWorkers
	case "litmus-gate":
		workers = litmusInstanceWorkers
	}
	n := runtime.NumCPU()
	return env{
		NumCPU: n, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workers: workers, ParallelMeasured: workers <= n && workers <= runtime.GOMAXPROCS(0),
	}
}

// emit prints the environment, one line per metric, and the result line.
func emit(w io.Writer, e env, m metricSet, ck *checks) error {
	names := make([]string, 0, len(m))
	for n := range m {
		if !validName.MatchString(n) {
			return fmt.Errorf("invalid metric name %q", n)
		}
		names = append(names, n)
	}
	slices.Sort(names)
	eb, err := json.Marshal(map[string]env{"env": e})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(eb))
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', 8, 64), m[n].Unit)
	}
	if ck.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	rb, err := json.Marshal(result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(rb))
	return err
}
