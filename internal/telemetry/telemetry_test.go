package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// TestHistogramBucketEdges pins the "le" semantics at every boundary: a
// sample lands in the first bucket whose upper bound is >= the sample, and
// samples above the last bound go to overflow.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram(0, 1, 2, 4)
	for _, v := range []int64{-1, 0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []HistBucket{
		{LE: 0, Count: 2}, // -1, 0
		{LE: 1, Count: 1}, // 1
		{LE: 2, Count: 1}, // 2
		{LE: 4, Count: 2}, // 3, 4
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if s.Overflow != 2 { // 5, 100
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if s.Sum != -1+0+1+2+3+4+5+100 {
		t.Errorf("sum = %d, want %d", s.Sum, -1+0+1+2+3+4+5+100)
	}
}

// TestCountersConcurrent hammers one counter, the task vector, and a
// histogram from many goroutines; totals must be exact (run under -race).
func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Count(CEventsApplied, 1)
				r.IncTask(w)
				r.Observe(HChannelDepth, int64(i%300))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Value(CEventsApplied); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Hist(HChannelDepth).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	r.SetTaskLabels([]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"})
	snap := r.Snapshot()
	for w := 0; w < workers; w++ {
		if got := snap.TaskFires[fmt.Sprintf("t%d", w)]; got != per {
			t.Errorf("task %d fires = %d, want %d", w, got, per)
		}
	}
}

// TestGaugeMaxConcurrent: after racing raises, the gauge holds the maximum.
func TestGaugeMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.GaugeMax(GValenceFrontierPeak, int64(w*1000+i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Value(GValenceFrontierPeak); got != 7999 {
		t.Errorf("gauge max = %d, want 7999", got)
	}
}

// TestIncTaskBounds: negative indices are dropped, out-of-range indices fold
// into the last slot instead of allocating or panicking.
func TestIncTaskBounds(t *testing.T) {
	r := NewRegistry()
	r.IncTask(-1)
	r.IncTask(maxTasks + 5)
	r.IncTask(maxTasks * 2)
	if got := r.tasks[maxTasks-1].Load(); got != 2 {
		t.Errorf("overflow slot = %d, want 2", got)
	}
}

// TestRecorderWraparound pins the ring bound: with capacity c and n > c
// events recorded, the snapshot holds exactly the last c events in record
// order, and Stats reports n recorded / n-c dropped.
func TestRecorderWraparound(t *testing.T) {
	const cap, total = 8, 20
	r := NewRecorder(cap)
	for i := 0; i < total; i++ {
		r.Instant(CatSched, "e"+strconv.Itoa(i), 0, int64(i))
	}
	rec, drop := r.Stats()
	if rec != total || drop != total-cap {
		t.Fatalf("Stats() = (%d, %d), want (%d, %d)", rec, drop, total, total-cap)
	}
	events := r.Snapshot()
	if len(events) != cap {
		t.Fatalf("snapshot holds %d events, want %d", len(events), cap)
	}
	for i, e := range events {
		want := total - cap + i
		if e.Name != "e"+strconv.Itoa(want) || e.Arg != int64(want) {
			t.Errorf("event %d = %q/%d, want e%d (oldest-first order broken)", i, e.Name, e.Arg, want)
		}
	}
}

// TestRecorderNeverTorn: concurrent writers stamp Name and Arg with the same
// value; any snapshot (taken while writes are in flight and after) must see
// only consistent pairs — an event is fully written or absent, never mixed.
func TestRecorderNeverTorn(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "w" + strconv.Itoa(w)
			for i := 0; i < 5_000; i++ {
				r.Instant(CatIOA, name, int32(w), int64(w))
			}
		}(w)
	}
	check := func(events []Event) {
		for _, e := range events {
			if e.Name != "w"+strconv.Itoa(int(e.Arg)) || int64(e.Tid) != e.Arg {
				t.Errorf("torn event: name=%q tid=%d arg=%d", e.Name, e.Tid, e.Arg)
			}
		}
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				check(r.Snapshot())
			}
		}
	}()
	wg.Wait()
	close(stop)
	check(r.Snapshot())
}

// TestSpanClampsDuration: a span whose start and end collapse to the same
// nanosecond still gets Dur >= 1, because Chrome silently drops
// zero-duration "X" events.
func TestSpanClampsDuration(t *testing.T) {
	r := NewRecorder(4)
	r.Span(CatOracle, "sweep", now(), 0, 0)
	events := r.Snapshot()
	if len(events) != 1 || events[0].Dur < 1 {
		t.Fatalf("span events = %+v, want one event with Dur >= 1", events)
	}
}

// TestChromeTraceJSON validates the exported trace against the trace_event
// schema Perfetto and about:tracing load: a traceEvents array whose entries
// carry name/cat/ph/ts/pid/tid, "X" spans with dur, "i" instants with scope,
// plus otherData metadata.
func TestChromeTraceJSON(t *testing.T) {
	r := NewRecorder(16)
	t0 := now()
	r.Span(CatValence, "expand", t0, 3, 42)
	r.Instant(CatCrash, "crash(1)", 1, 7)
	r.SetMeta("artifact", "fail-0.json")

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("traceEvents has %d entries, want 2", len(out.TraceEvents))
	}
	span, inst := out.TraceEvents[0], out.TraceEvents[1]
	if span.Ph != "X" || span.Dur <= 0 || span.Cat != "valence" || span.Name != "expand" ||
		*span.Tid != 3 || span.Args["arg"].(float64) != 42 {
		t.Errorf("bad span event: %+v", span)
	}
	if inst.Ph != "i" || inst.S != "t" || inst.Cat != "crash" {
		t.Errorf("bad instant event: %+v", inst)
	}
	for i, e := range out.TraceEvents {
		if e.TS == nil || e.Pid == nil || e.Tid == nil {
			t.Errorf("event %d missing required ts/pid/tid fields", i)
		}
	}
	if out.DisplayTimeUnit != "ms" || out.OtherData["artifact"] != "fail-0.json" {
		t.Errorf("metadata: displayTimeUnit=%q otherData=%v", out.DisplayTimeUnit, out.OtherData)
	}
}

// TestSnapshotGrouping: counters, gauges, and histograms land in their own
// snapshot sections, zero-valued metrics are omitted, and the snapshot
// marshals to JSON.
func TestSnapshotGrouping(t *testing.T) {
	r := NewRegistry()
	r.Count(CSchedSteps, 5)
	r.SetGauge(GValenceFrontier, 3)
	r.Observe(HOracleSweepNs, 2_000)
	s := r.Snapshot()
	if s.Counters["sched_steps"] != 5 {
		t.Errorf("counters = %v", s.Counters)
	}
	if _, ok := s.Counters["events_applied"]; ok {
		t.Error("zero-valued counter not omitted")
	}
	if s.Gauges["valence_frontier"] != 3 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if h, ok := s.Histograms["oracle_sweep_ns"]; !ok || h.Count != 1 {
		t.Errorf("histograms = %v", s.Histograms)
	}
	if _, ok := s.Histograms["channel_depth"]; ok {
		t.Error("empty histogram not omitted")
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot does not marshal: %v", err)
	}
}

// TestInitDisabled: with neither flag set, Init must return an untyped nil
// Sink — a typed-nil *Registry wrapped in the interface would defeat every
// `if tel != nil` guard in the hot paths.
func TestInitDisabled(t *testing.T) {
	tel, flush, err := Init("", "")
	if err != nil {
		t.Fatal(err)
	}
	defer flush()
	if tel != nil {
		t.Fatalf("Init(\"\", \"\") = %T, want untyped nil Sink", tel)
	}
}

// TestInitTraceOut: with a trace path, Init returns the live registry and a
// flush that writes a loadable Chrome trace.
func TestInitTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tel, flush, err := Init("", path)
	if err != nil {
		t.Fatal(err)
	}
	if tel == nil {
		t.Fatal("Init with trace.out returned nil sink")
	}
	tel.Instant(CatSched, "step", 0, 1)
	flush()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("flushed trace is not valid JSON: %v", err)
	}
	if _, ok := out["traceEvents"]; !ok {
		t.Error("flushed trace has no traceEvents array")
	}
}

// TestInitTraceOutCounters: the flushed trace ends with the registry's
// metrics as Chrome counter events, so a one-shot run that exits right after
// flushing still shows its counters and histograms.  Init uses the process
// registry, which other tests may also count into, hence the lower bounds.
func TestInitTraceOutCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tel, flush, err := Init("", path)
	if err != nil {
		t.Fatal(err)
	}
	tel.Instant(CatSched, "step", 0, 1)
	tel.Count(CSuspicionAdded, 3)
	tel.SetGauge(GPartitionActive, 1)
	tel.Observe(HDetectionLatency, 5)
	tel.Observe(HDetectionLatency, 7)
	flush()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Ph   string           `json:"ph"`
			TS   *float64         `json:"ts"`
			Pid  *int             `json:"pid"`
			Tid  *int             `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("flushed trace is not valid JSON: %v", err)
	}
	counters := map[string]map[string]int64{}
	sawCounter := false
	for _, e := range out.TraceEvents {
		if e.Ph != "C" {
			if sawCounter {
				t.Errorf("%s event %q after the counter events", e.Ph, e.Name)
			}
			continue
		}
		sawCounter = true
		if e.Cat != "metrics" || e.TS == nil || e.Pid == nil || e.Tid == nil {
			t.Errorf("counter event %q lacks cat/ts/pid/tid: %+v", e.Name, e)
		}
		counters[e.Name] = e.Args
	}
	if got := counters[CSuspicionAdded.Name()]["value"]; got < 3 {
		t.Errorf("suspicion_added counter event value = %d, want ≥ 3 (events: %v)", got, counters)
	}
	if got := counters[GPartitionActive.Name()]["value"]; got != 1 {
		t.Errorf("partition gauge counter event value = %d, want 1", got)
	}
	if h := counters[HDetectionLatency.Name()]; h["count"] < 2 || h["sum"] < 12 {
		t.Errorf("detection latency counter event = %v, want count ≥ 2 and sum ≥ 12", h)
	}
}

// TestServeEndpoints boots the opt-in HTTP endpoint on an ephemeral port and
// checks all three surfaces: expvar, the JSON metric snapshot, and pprof.
func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Count(CEventsApplied, 9)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/telemetry"), &snap); err != nil {
		t.Fatalf("/telemetry is not a Snapshot: %v", err)
	}
	if snap.Counters["events_applied"] != 9 {
		t.Errorf("/telemetry counters = %v", snap.Counters)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if len(get("/debug/pprof/cmdline")) == 0 {
		t.Error("/debug/pprof/cmdline returned no data")
	}
}
