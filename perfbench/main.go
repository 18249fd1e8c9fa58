// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates every input from a seed, drives the query
// service over one of three workloads, checks every output against the
// navdom oracle, and prints its metrics with their units; the last line
// of standard output is one JSON object.
//
//	perfbench -workload xmark-suite -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it reports per-layer metrics instead: the timed traffic
// runs once untraced and once with spans recorded around every call the
// benchmark makes into the program, then a layer probe times each public
// layer function (parse, normalize, compile, optimize, check, lower,
// evaluate, serialize, shred, persist, open) over the workload's own
// inputs. Spans and self times are written under -workdir. See README.md
// for the workloads and the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // per-run scratch (catalogs, span files), removed or kept as noted
}

// outcome is what a workload hands back to main.
type outcome struct {
	e2e       map[string]metric // end-to-end metrics (untraced traffic)
	layers    map[string]metric // per-layer metrics (traced runs only)
	attempted int64             // operations whose status or output was checked
	failed    int64             // non-200 statuses, transport errors, output mismatches, lost writes
	problems  []string          // one line per failure kind, for standard error
	record    map[string]any    // run stamps: environment, input sizes, lateness
	tracer    *tracer           // spans of the traced run (nil untraced)
}

func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf("%d× ", n)+fmt.Sprintf(format, args...))
}

// endToEnd are the metrics of BENCHMARK.json's end_to_end list, the
// ones the result line carries in an untraced run. The workloads compute
// latency_p99_ms too; it is printed and recorded but not gated — see
// README.md.
var endToEnd = []string{"setup_s", "throughput_qps", "latency_geomean_ms", "latency_p50_ms", "cpu_ms_per_query", "peak_rss_mb"}

type workloadFunc func(context.Context, options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"xmark-suite":      runSuite,
	"point-adhoc":      runAdhoc,
	"collection-churn": runChurn,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "xmark-suite, point-adhoc, collection-churn, or all (each in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds of timed traffic")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/perfbench-runs", "scratch directory for catalogs and span files")
	flag.Parse()
	o.trace = trace == 1

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
			fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v or all), -seconds ≥ 1, -trace 0|1\n", workloadNames())
			return 2
		}
	}
	code := 0
	for _, n := range names {
		wo := o
		wo.workload = n
		code = max(code, runWorkload(wo))
	}
	return code
}

// runWorkload runs one workload and prints its metrics, its record and,
// last, its result line.
func runWorkload(o options) int {
	trace := 0
	if o.trace {
		trace = 1
	}
	runDir := filepath.Join(o.workDir, fmt.Sprintf("%s-seed%d-trace%d-pid%d", o.workload, o.seed, trace, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	o.workDir = runDir

	out, err := workloads[o.workload](context.Background(), o)
	for _, sub := range []string{"catalog", "store-probe"} {
		os.RemoveAll(filepath.Join(runDir, sub)) //nolint:errcheck — scratch under the build directory
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, p)
	}

	rec := out.record
	rec["workload"] = o.workload
	rec["seed"] = o.seed
	rec["seconds"] = o.seconds
	rec["trace"] = o.trace
	rec["nproc"] = runtime.NumCPU()
	rec["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rec["go_version"] = runtime.Version()
	rec["attempted"] = out.attempted
	rec["failed"] = out.failed
	rec["error_rate"] = errorRate(out.failed, out.attempted)
	rec["end_to_end"] = out.e2e
	if o.trace {
		rec["per_layer"] = out.layers
		rec["self_times"] = out.tracer.selfTimes()
		spans := filepath.Join(runDir, "spans.json")
		if err := out.tracer.write(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		rec["spans_file"] = spans
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode record: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(runDir, "record.json"), recJSON, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	metrics := out.layers
	if !o.trace {
		metrics = map[string]metric{}
		for _, n := range endToEnd {
			metrics[n] = out.e2e[n]
		}
	}
	printMetrics(out.e2e)
	if o.trace {
		printMetrics(out.layers)
	}
	fmt.Printf("error_rate %s (%d failed of %d attempted)\n", strconv.FormatFloat(errorRate(out.failed, out.attempted), 'g', -1, 64), out.failed, out.attempted)
	fmt.Printf("record %s\n", recJSON)

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func errorRate(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', -1, 64), m[n].Unit)
	}
}
