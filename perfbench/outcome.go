package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload prints with --trace 0, and the
// ones BENCHMARK.json bounds. Every workload has all of them, and none of
// them is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every workload prints with --trace 1. A layer a
// workload does not touch reads 0. Times with unit s/op are means per
// valuation op; s/call are means per call of that layer on the serving
// path; count metrics are totals over the measured window.
var perLayer = []metricDef{
	{"knn.scan_s", "s/op"},
	{"knn.scan_calls", "count/op"},
	{"knn.scan_bytes", "bytes/op"},
	{"vec.argsort_s", "s/op"},
	{"vec.argsort_calls", "count/op"},
	{"kheap.topk_s", "s/op"},
	{"core.recur_s", "s/op"},
	{"core.engine_s", "s/op"},
	{"core.engine_other_s", "s/op"},
	{"lsh.build_s", "s"},
	{"lsh.load_s", "s"},
	{"lsh.index_bytes", "bytes"},
	{"lsh.heap_bytes", "bytes"},
	{"lsh.query_s", "s/op"},
	{"wire.decode_s", "s/call"},
	{"wire.encode_s", "s/call"},
	{"registry.apply_delta_s", "s/call"},
	{"registry.delete_s", "s/call"},
	{"jobs.queue_wait_s", "s/call"},
	{"cluster.incremental_s", "s/call"},
	{"svserver.other_ms", "ms/op"},
	{"cluster.patches", "count"},
	{"cluster.fromscratch", "count"},
	{"cluster.patch_ratio", "ratio"},
	{"cluster.rank_cache_evictions", "count"},
	{"registry.puts", "count"},
	{"registry.loads", "count"},
	{"registry.evictions", "count"},
	{"jobs.runs", "count"},
	{"trace.overhead", "ratio"},
}

// reportOnly are printed in the report where they apply but are not part
// of the result line: fail_ratio is usually 0 (the result line carries
// attempted and failed instead), max_abs_err is checked against eps rather
// than bounded, and the svserver lifetime peak and the per-request-kind
// latencies exist only on the serving workload.
var reportOnly = []metricDef{
	{"fail_ratio", "ratio"},
	{"max_abs_err", "abs"},
	{"peak_rss_lifetime_mb", "MB"},
	{"value_p50_ms", "ms"},
	{"value_tail_ms", "ms"},
	{"delta_p50_ms", "ms"},
	{"delta_tail_ms", "ms"},
	{"delete_p50_ms", "ms"},
	{"delete_tail_ms", "ms"},
}

// outcome collects one run's metrics, op counts and check results, and
// prints the human-readable report as it goes.
type outcome struct {
	w         io.Writer
	attempted int
	failed    int
	failures  []string
	vals      map[string]float64
	details   map[string]string
}

func newOutcome(w io.Writer) *outcome {
	return &outcome{w: w, vals: map[string]float64{}, details: map[string]string{}}
}

// set records a metric value; detail, when given, is printed beside it.
func (o *outcome) set(name string, v float64, detail ...string) {
	o.vals[name] = v
	if len(detail) > 0 {
		o.details[name] = detail[0]
	}
}

// setLatency records the median and tail of lat under name_p50_ms and
// name_tail_ms.
func (o *outcome) setLatency(name string, lat []float64) {
	s := summarize(lat)
	o.set(name+"_p50_ms", s.p50)
	o.set(name+"_tail_ms", s.tail, s.tailDetail())
}

// ops adds attempted and failed ops of the measured window.
func (o *outcome) ops(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

// note prints one report line.
func (o *outcome) note(format string, args ...any) {
	fmt.Fprintf(o.w, "# "+format+"\n", args...)
}

// check prints the result of an output check; a failed check makes the run
// incorrect.
func (o *outcome) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		o.note("check ok: %s", msg)
		return
	}
	o.note("check FAILED: %s", msg)
	o.failures = append(o.failures, msg)
}

// finish prints every recorded metric with its unit and builds the result
// line: the end-to-end metrics for an untraced run, the per-layer metrics
// for a traced one.
func (o *outcome) finish(trace bool) (*result, error) {
	if o.attempted > 0 {
		o.set("fail_ratio", float64(o.failed)/float64(o.attempted))
	}
	units := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range defs {
			units[d.name] = d.unit
		}
	}
	names := make([]string, 0, len(o.vals))
	for n := range o.vals {
		if _, ok := units[n]; !ok {
			return nil, fmt.Errorf("metric %q has no unit", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("metric %s %.6g %s", n, o.vals[n], units[n])
		if d := o.details[n]; d != "" {
			line += " (" + d + ")"
		}
		o.note("%s", line)
	}

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := &result{
		Correct:   len(o.failures) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.vals[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}
