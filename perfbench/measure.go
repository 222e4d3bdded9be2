package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// sample is the outcome of one cell: its wall time, its CPU time scaled to
// the reference speed (calib.go), the trace events it carried, whether the
// target's checker rejected its run, and the first check that failed (nil:
// every output was correct).
type sample struct {
	ms       float64 // wall time
	cpuMs    float64 // process CPU time, every thread included, at the reference speed
	events   int
	bytes    int // artifact bytes written, where the cell writes one
	rejected bool
	traced   bool // the cell ran with spans
	err      error
}

// add folds the sample of one part of a cell into the cell's sample.
func (s *sample) add(part sample) {
	s.events += part.events
	s.bytes += part.bytes
	s.rejected = s.rejected || part.rejected
	if s.err == nil {
		s.err = part.err
	}
}

// closedLoop runs cells one after another on a single client until d has
// elapsed: each cell starts only after the previous one completed, and the
// cell under way when time runs out is finished.  cell receives the cell's
// index.  One client keeps the program's own threads the only load on the
// processors, so a cell's CPU time is its own work.  After each cell the
// calibration kernel runs (calib.go); its time is not the cell's, but it
// counts against d.
func closedLoop(d time.Duration, cell func(i int) sample) ([]sample, time.Duration) {
	var all []sample
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0, c0 := time.Now(), cpuNow()
		s := cell(i)
		s.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
		s.cpuMs = float64(cpuNow()-c0) / 1e6
		s.cpuMs *= refScale(s.cpuMs)
		all = append(all, s)
	}
	return all, time.Since(start)
}

// timedSetup runs setup k times and returns the last product with the
// median CPU time in seconds at the reference speed, so one slow set-up does
// not move the figure.
func timedSetup[T any](k int, setup func() (T, error)) (T, float64, error) {
	var prod T
	var secs []float64
	for i := 0; i < k; i++ {
		c0 := cpuNow()
		p, err := setup()
		if err != nil {
			return prod, 0, err
		}
		cpuS := float64(cpuNow()-c0) / 1e9
		secs = append(secs, cpuS*refScale(cpuS*1e3))
		prod = p
	}
	return prod, percentile(secs, 50), nil
}

// percentile is the p-th percentile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// rate is the events carried per CPU second at the reference speed: the
// events of every cell over the cells' summed CPU time.
func rate(samples []sample) float64 {
	var ms float64
	for _, s := range samples {
		ms += s.cpuMs
	}
	if ms == 0 {
		return 0
	}
	return float64(events(samples)) / (ms / 1e3)
}

// tally folds the samples into an outcome with the end-to-end throughput
// and median cell cost in CPU time at the reference speed.  It prints the
// wall-clock figures too, which a shared host moves from run to run.
func tally(samples []sample, wall time.Duration, setupS float64) *outcome {
	o := &outcome{attempted: len(samples), failed: countFailed(samples), metrics: map[string]float64{"setup_s": setupS}}
	var cpuMs, ms []float64
	for _, s := range samples {
		cpuMs = append(cpuMs, s.cpuMs)
		ms = append(ms, s.ms)
	}
	o.metrics["events_per_norm_cpu_s"] = rate(samples)
	o.metrics["cell_norm_cpu_ms_p50"] = percentile(cpuMs, 50)
	fmt.Printf("%d cells, %d events in %.2fs, %d failed; %.0f events per normalised CPU second; cell normalised CPU p50 %.3fms; cell wall p50 %.3fms p90 %.3fms; set-up %.4f normalised CPU s\n",
		len(samples), events(samples), wall.Seconds(), o.failed, o.metrics["events_per_norm_cpu_s"],
		o.metrics["cell_norm_cpu_ms_p50"], percentile(ms, 50), percentile(ms, 90), setupS)
	return o
}

// countFailed counts the failed samples and prints the first few
// failures to stderr.
func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.err != nil {
			if n < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: failed cell: %v\n", s.err)
			}
			n++
		}
	}
	return n
}

// events sums the trace events of samples.
func events(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += s.events
	}
	return n
}

// runtimeCounters reads the process-wide GC CPU time, total CPU time and
// heap bytes allocated so far.
type runtimeCounters struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeCounters{val(0), val(1), val(2)}
}

// runtimeMetrics fills the runtime.* per-layer rows from counters read
// before and after a measured phase that carried evs events.
func runtimeMetrics(m map[string]float64, before, after runtimeCounters, evs int) {
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if evs > 0 {
		m["runtime.alloc_bytes_per_event"] = (after.allocBytes - before.allocBytes) / float64(evs)
	}
}

// cpuNow is the process's CPU time so far in nanoseconds, every thread
// included (Linux CLOCK_PROCESS_CPUTIME_ID).  Time the host gives to other
// tenants is not in it, so figures built on it hold steady on a shared
// machine where wall-clock figures do not.
func cpuNow() int64 { return clockNs(2) }

// clockNs reads the Linux clock with the given id in nanoseconds.
func clockNs(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, e))
	}
	return ts.Nano()
}

// threadCPUNow is the calling thread's CPU time so far in nanoseconds
// (Linux CLOCK_THREAD_CPUTIME_ID).
func threadCPUNow() int64 { return clockNs(3) }

// heapInUse forces a collection and returns the live heap bytes, so the
// figure counts only what is still reachable.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
