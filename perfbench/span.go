package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// span is one traced call into a layer.  Spans are kept in memory and
// analysed when the run ends; each also goes to the telemetry recorder, which
// writes the Chrome trace.
type span struct {
	name       string
	start, end int64 // telemetry clock, ns
	// parent indexes the enclosing span of the same tracer (-1: none).
	parent int32
	// cell identifies the cell the span belongs to (the Chrome event's arg).
	cell int64
	// events is the trace length the call carried (0 for per-cell work).
	events int
	// allocs is the heap objects allocated during the span (allocation
	// mode only).
	allocs uint64
}

// tracer records the spans of one goroutine.  In timing mode it stamps
// spans on the telemetry clock and forwards them to the registry's
// recorder; in allocation mode it brackets each span with
// runtime.ReadMemStats instead, which is exact only when one goroutine
// allocates.
type tracer struct {
	reg   *telemetry.Registry // nil in allocation mode
	cell  int64
	open  int32
	spans []span
	ms    runtime.MemStats
}

func newTracer(reg *telemetry.Registry) *tracer {
	return &tracer{reg: reg, open: -1}
}

// newAllocTracer returns a tracer that counts allocations per span.
func newAllocTracer() *tracer { return &tracer{open: -1} }

// begin opens a span; on a nil tracer it does nothing.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	s := span{name: name, parent: t.open, cell: t.cell}
	if t.reg != nil {
		s.start = t.reg.Now()
	} else {
		runtime.ReadMemStats(&t.ms)
		s.allocs = t.ms.Mallocs
	}
	t.spans = append(t.spans, s)
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes span i, which carried the given number of events.
func (t *tracer) end(i int32, events int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	if t.reg != nil {
		s.end = t.reg.Now()
		t.reg.Span(category(s.name), s.name, s.start, 0, s.cell)
	} else {
		runtime.ReadMemStats(&t.ms)
		s.allocs = t.ms.Mallocs - s.allocs
	}
	s.events = events
	t.open = s.parent
}

// category maps a span name onto the telemetry category of its module.
func category(name string) telemetry.Category {
	switch {
	case strings.HasPrefix(name, "sched."):
		return telemetry.CatSched
	case strings.HasPrefix(name, "causal."):
		return telemetry.CatCausal
	case strings.HasPrefix(name, "valence."):
		return telemetry.CatValence
	case strings.HasPrefix(name, "live."):
		return telemetry.CatLive
	}
	return telemetry.CatChaos
}

// layer aggregates the spans of one name.  Self figures exclude the child
// spans nested inside.
type layer struct {
	count           int
	totalNs, selfNs int64
	events          int64
	allocs          int64 // self
}

// nsPerEvent is the layer's self time per event carried.
func (l *layer) nsPerEvent() float64 {
	if l == nil || l.events == 0 {
		return 0
	}
	return float64(l.selfNs) / float64(l.events)
}

// allocsPerEvent is the layer's self allocations per event carried.
func (l *layer) allocsPerEvent() float64 {
	if l == nil || l.events == 0 {
		return 0
	}
	return float64(l.allocs) / float64(l.events)
}

// usPerCall is the layer's mean self time per span in microseconds.
func (l *layer) usPerCall() float64 {
	if l == nil || l.count == 0 {
		return 0
	}
	return float64(l.selfNs) / float64(l.count) / 1e3
}

// layers aggregates the tracer's spans by name.
func layers(t *tracer) map[string]*layer {
	out := map[string]*layer{}
	childNs := make([]int64, len(t.spans))
	childAllocs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
			childAllocs[s.parent] += int64(s.allocs)
		}
	}
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layer{}
			out[s.name] = l
		}
		dur := s.end - s.start
		l.count++
		l.totalNs += dur
		l.selfNs += dur - childNs[i]
		l.events += int64(s.events)
		l.allocs += int64(s.allocs) - childAllocs[i]
	}
	return out
}

// printSelfTime prints each layer's span count, total and self time, and
// its share of all self time, largest first.
func printSelfTime(ls map[string]*layer) {
	names := make([]string, 0, len(ls))
	var all int64
	for n, l := range ls {
		names = append(names, n)
		all += l.selfNs
	}
	sort.Slice(names, func(i, j int) bool { return ls[names[i]].selfNs > ls[names[j]].selfNs })
	fmt.Printf("%-26s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, n := range names {
		l := ls[n]
		fmt.Printf("%-26s %8d %12.3f %12.3f %6.1f%%\n", n, l.count,
			float64(l.totalNs)/1e6, float64(l.selfNs)/1e6, 100*float64(l.selfNs)/float64(max(all, 1)))
	}
}

// writeChromeTrace writes the registry's recorded spans as Chrome
// trace_event JSON (Perfetto opens it) and returns the file's path.
func writeChromeTrace(reg *telemetry.Registry, dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	rec := reg.Trace()
	rec.SetMeta("workload", workload)
	rec.SetMeta("seed", fmt.Sprint(seed))
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if _, dropped := rec.Stats(); dropped > 0 {
		fmt.Printf("chrome trace keeps the last %d spans; %d older ones were dropped\n",
			telemetry.DefaultTraceCap, dropped)
	}
	return path, nil
}

// tracedRun holds the measured phases of a traced run: an untraced half,
// whose runtime counters give the runtime.* rows, and a half whose cells
// alternate traced and untraced, so the tracing overhead compares cells run
// under the same machine conditions.
type tracedRun struct {
	plain, mixed  []sample
	before, after runtimeCounters
	reg           *telemetry.Registry
	tracer        *tracer
}

// runTraced measures both halves; cell runs the i-th cell, with spans when
// its tracer is non-nil.
func runTraced(cfg config, cell func(i int, t *tracer) sample) *tracedRun {
	r := &tracedRun{reg: telemetry.NewRegistry()}
	half := cfg.seconds / 2
	r.before = readRuntime()
	r.plain, _ = closedLoop(half, func(i int) sample { return cell(i, nil) })
	r.after = readRuntime()
	r.tracer = newTracer(r.reg)
	base := len(r.plain)
	r.mixed, _ = closedLoop(half, func(i int) sample {
		if i%2 == 1 {
			return cell(base+i, nil)
		}
		r.tracer.cell = int64(base + i)
		s := cell(base+i, r.tracer)
		s.traced = true
		return s
	})
	return r
}

// layers aggregates the run's spans by name.
func (r *tracedRun) layers() map[string]*layer { return layers(r.tracer) }

// finish fills the runtime rows and the tracing overhead into m, prints
// the self-time table, writes the Chrome trace, and counts the cells of
// every phase, extra included.
func (r *tracedRun) finish(cfg config, workload string, m map[string]float64, extra ...sample) (*outcome, error) {
	runtimeMetrics(m, r.before, r.after, events(r.plain))
	var ms []float64
	for _, s := range r.plain {
		ms = append(ms, s.ms)
	}
	m["perfbench.cell.ms_p90"] = percentile(ms, 90)
	var on, off []sample
	for _, s := range r.mixed {
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	over := 0.0
	if ron := rate(on); ron > 0 && len(off) > 0 {
		over = rate(off)/ron - 1
	}
	m["perfbench.tracing.overhead_frac"] = over
	printSelfTime(r.layers())
	fmt.Printf("tracing overhead: %+.2f%% (untraced / traced events per CPU second - 1, over %d untraced and %d traced cells)\n",
		100*over, len(off), len(on))
	path, err := writeChromeTrace(r.reg, cfg.out, workload, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("writing chrome trace: %w", err)
	}
	fmt.Printf("chrome trace: %s\n", path)
	all := append(append(append([]sample(nil), r.plain...), r.mixed...), extra...)
	return &outcome{attempted: len(all), failed: countFailed(all), metrics: m}, nil
}
