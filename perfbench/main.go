// Command perfbench is the repository benchmark: four named workloads, from
// offline exact KNN-Shapley at N=1e5 to delta serving through a real
// svserver process, each printing its end-to-end metrics (--trace 0) or its
// per-layer metrics from a separate traced run (--trace 1), and checking
// every output it measures.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// environment header and a human-readable report. See README.md for the
// workloads and the metric → layer → workload table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries one run's arguments and the workload sizes.
type config struct {
	name     string
	seed     uint64
	seconds  float64
	trace    bool
	svserver string // path of the svserver binary (serve workload)
	workdir  string // scratch directory for data dirs and index stores
	spans    string // directory the traced run writes its spans to
	sizes    sizes
}

// sizes are the input sizes of the workloads; the self-test shrinks them.
type sizes struct {
	exactN, lshN, serveN int
	batch                int // test points per valuation op
	deltaRows            int // rows appended per delta op
	setupReps            int // set-ups per run; setup_s is their median
	checkOps             int // ops per run kept for the reference checks
}

// fullSizes are the sizes the workload names promise.
var fullSizes = sizes{
	exactN: 100_000, lshN: 10_000, serveN: 20_000,
	batch: 16, deltaRows: 10, setupReps: 3, checkOps: 8,
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *outcome) error{
	"exact_n1e5":       runExact,
	"truncated_n1e5":   runTruncated,
	"lsh_n1e4":         runLSH,
	"serve_delta_n2e4": runServe,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured window per run, seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		svserver = flag.String("svserver", ".bench_build/svserver", "svserver binary")
		workdir  = flag.String("workdir", ".bench_build/work", "scratch directory")
		spans    = flag.String("spans", ".bench_build/spans", "directory for the traced run's spans")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	cfg := config{name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		svserver: *svserver, spans: *spans, sizes: fullSizes}
	dir, err := os.MkdirTemp(mustMkdir(*workdir), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.workdir = dir
	res, err := execute(run, cfg, os.Stdout)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// execute runs one workload, printing the environment header and the report
// to w, and returns the result line.
func execute(run func(config, *outcome) error, cfg config, w io.Writer) (*result, error) {
	env, _ := json.Marshal(environment())
	fmt.Fprintf(w, "# env %s\n", env)
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v\n", cfg.name, cfg.seed, cfg.seconds, cfg.trace)
	out := newOutcome(w)
	if err := run(cfg, out); err != nil {
		return nil, err
	}
	return out.finish(cfg.trace)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}
