// Command perfbench is the repository's pipeline benchmark: five workloads
// that drive the trace pipeline (execute → check → artifact → replay →
// provenance), the execution-tree explorer and the live runtime through
// their public entry points, time them from outside, and check every output.
//
// Usage (from the repository root; run.sh builds and starts it):
//
//	perfbench --workload sweep-n3 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no tracing.
// With --trace 1 it measures the per-layer metrics instead: an untraced
// half, a half whose cells alternate untraced and traced (a span around
// every call into a layer), and a single-goroutine allocation pass; the
// spans are written as Chrome trace_event JSON under --out.  The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.  README.md documents the
// workloads, the metrics and what each layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_norm_cpu_s", "1/s"},
	{"cell_norm_cpu_ms_p50", "ms"},
}

// perLayer lists the metrics every traced run reports, on every workload;
// a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"chaos.build.us_per_cell", "us"},
	{"sched.apply.ns_per_event", "ns"},
	{"sched.apply.allocs_per_event", "count"},
	{"afd.check.ns_per_event", "ns"},
	{"afd.check.allocs_per_event", "count"},
	{"consensus.check.ns_per_event", "ns"},
	{"trace.write.ns_per_event", "ns"},
	{"trace.write.bytes_per_event", "B"},
	{"trace.read.ns_per_event", "ns"},
	{"trace.read.allocs_per_event", "count"},
	{"chaos.replay.ns_per_event", "ns"},
	{"causal.compute.ns_per_event", "ns"},
	{"causal.build.ns_per_event", "ns"},
	{"causal.build.allocs_per_event", "count"},
	{"causal.build.verified_edges", "count"},
	{"causal.explain.us_per_chain", "us"},
	{"valence.explore_full.s", "s"},
	{"valence.explore_full.nodes", "count"},
	{"valence.explore_full.edges", "count"},
	{"valence.explore_full.nodes_per_s", "1/s"},
	{"valence.explore_full.heap_bytes_per_node", "B"},
	{"valence.explore_full.allocs_per_node", "count"},
	{"valence.explore_reduced.s", "s"},
	{"valence.explore_reduced.nodes", "count"},
	{"valence.explore_reduced.edges", "count"},
	{"valence.explore_reduced.nodes_per_s", "1/s"},
	{"valence.explore_reduced.heap_bytes_per_node", "B"},
	{"valence.explore_reduced.allocs_per_node", "count"},
	{"valence.reduce.ratio", "ratio"},
	{"valence.hooks.ms", "ms"},
	{"live.run_target.ms", "ms"},
	{"live.events_per_run", "count"},
	{"live.detections", "count"},
	{"live.detect.ms_p50", "ms"},
	{"live.detect.ms_p90", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"chaos.events_per_cell", "count"},
	{"chaos.spec_rejections", "count"},
	{"perfbench.cell.ms_p90", "ms"},
	{"perfbench.tracing.overhead_frac", "frac"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	out     string // directory the traced run writes its Chrome trace into
}

// outcome is what a workload run reports: the cell counts and the metric
// values by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// workload is one named benchmark input set; run measures the end-to-end
// metrics and traced the per-layer ones.
type workload struct {
	run    func(cfg config) (*outcome, error)
	traced func(cfg config) (*outcome, error)
}

var workloads = map[string]workload{
	"sweep-n3":    {runSweep, tracedSweep},
	"scale-n32":   {runScale, tracedScale},
	"explain-n32": {runExplain, tracedExplain},
	"explore-n3":  {runExplore, tracedExplore},
	"live-n8":     {runLive, tracedLive},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload generates its inputs from")
	seconds := flag.Int("seconds", 15, "seconds one run measures")
	traceOn := flag.Int("trace", 0, "1: measure per-layer metrics with spans; 0: end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "traces"), "directory for the traced run's Chrome trace")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seconds ≥1 --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// One P: the explorer's idle workers poll for work and the live
	// runtime's goroutines wake on timers, and on a second P the CPU that
	// polling and the scheduler's spinning burn depends on how the host
	// schedules the other P; on one P the run-to-run spread of the CPU
	// figures of explore-n3 and explain-n32 halved.  The garbage collector
	// shares the one P too.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: *out}
	run, defs := w.run, endToEnd
	if *traceOn == 1 {
		run, defs = w.traced, perLayer
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := result(o, defs, *traceOn == 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result shapes an outcome into the output record.  Every end-to-end metric
// must be measured; per-layer metrics a workload does not exercise read 0.
func result(o *outcome, defs []metricDef, strict bool) (*resultJSON, error) {
	if o.attempted < 1 {
		return nil, fmt.Errorf("no cell completed")
	}
	res := &resultJSON{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if strict && (!ok || v <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return res, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
