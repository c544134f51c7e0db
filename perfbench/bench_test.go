package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinySizes keep the self-test to seconds per workload.
var tinySizes = sizes{
	exactN: 3000, lshN: 1500, serveN: 2000,
	batch: 4, deltaRows: 5, setupReps: 2, checkOps: 3,
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks the output contract: every metric BENCHMARK.json names is in the
// result line with its unit and printed in the report, every output check
// passed, the spans nest, and the traced stage spans sum to the untraced op
// time within the stated slack.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	svserver := filepath.Join(t.TempDir(), "svserver")
	if out, err := exec.Command("go", "build", "-o", svserver, "knnshapley/cmd/svserver").CombinedOutput(); err != nil {
		t.Fatalf("build svserver: %v\n%s", err, out)
	}
	for _, w := range bench.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := config{name: w.Name, seed: 7, seconds: 1, trace: trace, svserver: svserver,
					workdir: t.TempDir(), spans: t.TempDir(), sizes: tinySizes}
				var buf bytes.Buffer
				res, err := execute(run, cfg, &buf)
				report := buf.String()
				if err != nil {
					t.Fatalf("%v\n%s", err, report)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report)
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing from the result line", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
					// A layer the workload does not touch is in the result
					// line as 0 but has no report line.
					if (!trace || got.Value != 0) && !regexp.MustCompile(
						`(?m)^# metric `+regexp.QuoteMeta(m.Name)+` \S+ `+regexp.QuoteMeta(m.Unit)+`( |$)`).MatchString(report) {
						t.Errorf("metric %s is not printed with its unit %s", m.Name, m.Unit)
					}
				}
				if trace {
					if !strings.Contains(report, "check ok: spans nest inside their parents") {
						t.Errorf("no span nesting check in the report\n%s", report)
					}
					if !strings.Contains(report, "check ok: stage spans sum to") {
						t.Errorf("traced stage spans do not sum to the untraced op time within the slack\n%s", report)
					}
				}
			})
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	s := summarize(lat)
	if s.p50 != 50.5 || s.tail != 90 || s.pct != 90 {
		t.Fatalf("summarize(1..100) = %+v, want p50 50.5, tail 90 at p90", s)
	}
	if s := summarize(lat[:5]); s.tail != 5 {
		t.Fatalf("summarize(1..5) tail = %v, want the maximum 5", s.tail)
	}
}

func TestWallShares(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 70},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 40},
	}}
	stages, unattributed := tr.wallShares()
	want := map[string]float64{"a.self": 15e-9, "b": 30e-9, "c": 15e-9}
	if len(stages) != len(want) {
		t.Errorf("stages = %v, want %v", stages, want)
	}
	for k, v := range want {
		if diff := stages[k] - v; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("share %s = %v, want %v (all: %v)", k, stages[k], v, stages)
		}
	}
	if diff := unattributed - 40e-9; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("unattributed = %v, want 40ns", unattributed)
	}
	if s := tr.selfTime("op"); s < 40e-9-1e-15 || s > 40e-9+1e-15 {
		t.Errorf("selfTime(op) = %v, want 40ns", s)
	}
}
