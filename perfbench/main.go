// Command perfbench is the repository benchmark: it drives one workload
// through the library's public entry points, checks every output row, and
// prints the workload's metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 a separate traced run records spans around the calls into
// each layer and the metrics are the per-layer ones. Run it from the root
// of the repository:
//
//	go build -o .bench_build/perfbench ./perfbench   # or: python3 perfbench/run.py ...
//	.bench_build/perfbench -workload join-sweep -seed 1 -seconds 28 -trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, microseconds after exec.
var processStart = time.Now()

// options are the command-line inputs of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root: golden files are read from here
	outDir   string // where the span file of a traced run is written
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&secs, "seconds", 28, "length of the timed region in host seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if secs <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1

	b := newBench(o)
	if err := wl(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return b.report(stdout, stderr)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"join-sweep":  runJoinSweep,
	"oltp-mixed":  runOLTPMixed,
	"service-mix": runServiceMix,
	"fleet-sweep": runFleetSweep,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is the state of one benchmark run: options, the tracer (nil when
// untraced), the operation tally and the measurements the metrics are
// derived from.
type bench struct {
	o         options
	tr        *tracer
	attempted int
	failed    int
	failures  []string
	d         runData
}

func newBench(o options) *bench {
	b := &bench{o: o}
	if o.trace {
		b.tr = newTracer()
	}
	return b
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the environment stamp, every metric with its unit and
// sample count, and the result line; in a traced run it also writes the
// spans to the output directory.
func (b *bench) report(stdout, stderr io.Writer) int {
	b.d.peakRSSMB = peakRSSMB()
	b.d.failRatio = ratio(b.failed, b.attempted)
	env := stampEnv(b.o)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	for _, f := range b.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}

	var ms []metricValue
	if b.o.trace {
		b.d.layers.selfMS = layerSelfMS(b.tr.spans, b.d.layers.ops)
		ms = perLayer(&b.d)
		if err := b.writeSpans(env); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		ms = endToEnd(&b.d)
	}
	fmt.Fprintf(stdout, "fail_ratio %.6f (%d of %d operations failed)\n", b.d.failRatio, b.failed, b.attempted)
	for _, line := range b.d.notes {
		fmt.Fprintln(stdout, line)
	}
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(ms)),
	}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-36s %14.6f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// writeSpans writes the traced run's spans as one JSON document.
func (b *bench) writeSpans(env environment) error {
	if err := os.MkdirAll(b.o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.o.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.o.workload, b.o.seed))
	data, err := json.Marshal(struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{env, b.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
