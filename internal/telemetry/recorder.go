package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// DefaultTraceCap is the default trace-ring capacity in events.  At ~64
// bytes per event the bounded-memory guarantee is ~4 MiB regardless of run
// length: once the ring is full, each new event evicts the oldest.
const DefaultTraceCap = 1 << 16

// Event is one recorded trace event.  When Ph is zero, Dur == 0 marks an
// instantaneous event (Chrome phase "i") and Dur > 0 a completed span
// (phase "X"); Ph 's' or 'f' marks a flow-arrow end (ID pairs the two
// ends).  Timestamps are nanoseconds on the package's monotonic clock.
type Event struct {
	TS   int64
	Dur  int64
	Arg  int64
	ID   uint64 // flow-arrow identity, meaningful when Ph is 's' or 'f'
	Tid  int32
	Cat  Category
	Ph   byte // 0: derived from Dur; 's'/'f': flow start/finish
	Name string
}

// Recorder is a bounded ring buffer of trace events.  Writers append under a
// mutex, so exported events are never torn: a Snapshot sees each event
// either fully written or not at all, in record order, and the ring holds
// the most recent cap events (oldest evicted first).
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded
	meta map[string]string
}

// NewRecorder returns a recorder holding at most cap events (cap < 1 is
// clamped to DefaultTraceCap).
func NewRecorder(cap int) *Recorder {
	if cap < 1 {
		cap = DefaultTraceCap
	}
	return &Recorder{buf: make([]Event, cap)}
}

// Span records a completed span from startNs (obtained from Now) to now.
func (r *Recorder) Span(cat Category, name string, startNs int64, tid int32, arg int64) {
	d := now() - startNs
	if d < 1 {
		d = 1 // Chrome drops zero-duration "X" events; clamp to 1ns
	}
	r.record(Event{TS: startNs, Dur: d, Arg: arg, Tid: tid, Cat: cat, Name: name})
}

// Instant records an instantaneous event stamped now.
func (r *Recorder) Instant(cat Category, name string, tid int32, arg int64) {
	r.record(Event{TS: now(), Arg: arg, Tid: tid, Cat: cat, Name: name})
}

// FlowAt records one end of a flow arrow (Chrome ph "s"/"f") with identity
// id at an explicit timestamp.  Explicit timestamps let post-hoc analyses —
// the causal provenance engine annotating an already-recorded execution —
// place arrows at the instants of the events they connect.
func (r *Recorder) FlowAt(ph FlowPhase, cat Category, name string, id uint64, tsNs int64, tid int32) {
	p := byte('s')
	if ph == FlowFinish {
		p = 'f'
	}
	r.record(Event{TS: tsNs, ID: id, Tid: tid, Cat: cat, Ph: p, Name: name})
}

// InstantAt records an instantaneous event at an explicit timestamp.
func (r *Recorder) InstantAt(cat Category, name string, tsNs int64, tid int32, arg int64) {
	r.record(Event{TS: tsNs, Arg: arg, Tid: tid, Cat: cat, Name: name})
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	r.mu.Unlock()
}

// SetMeta attaches a key/value pair exported as trace metadata (the
// "otherData" object of the Chrome trace).  Chaos uses it to cross-link a
// trace to the artifact it was recorded from.
func (r *Recorder) SetMeta(key, value string) {
	r.mu.Lock()
	if r.meta == nil {
		r.meta = map[string]string{}
	}
	r.meta[key] = value
	r.mu.Unlock()
}

// Stats returns the total number of events recorded and the number evicted
// by the ring bound.
func (r *Recorder) Stats() (recorded, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	recorded = r.next
	if c := uint64(len(r.buf)); recorded > c {
		dropped = recorded - c
	}
	return recorded, dropped
}

// Snapshot copies the retained events in record order, oldest first.
func (r *Recorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := uint64(len(r.buf))
	if r.next <= c {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	head := r.next % c
	out := make([]Event, 0, c)
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// chromeEvent is the trace_event wire form, loadable by about:tracing and
// Perfetto (JSON legacy format).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant scope
	ID   uint64         `json:"id,omitempty"` // flow-arrow identity
	BP   string         `json:"bp,omitempty"` // flow binding point ("e" on "f")
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object format.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChromeTrace writes the retained events as Chrome trace_event JSON
// (the "JSON object format": a traceEvents array plus metadata), suitable
// for chrome://tracing and https://ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error { return r.writeChromeTrace(w, nil) }

// writeChromeTrace is WriteChromeTrace with extra events appended after the
// retained ones.
func (r *Recorder) writeChromeTrace(w io.Writer, extra []chromeEvent) error {
	events := r.Snapshot()
	r.mu.Lock()
	meta := make(map[string]string, len(r.meta))
	for k, v := range r.meta {
		meta[k] = v
	}
	r.mu.Unlock()

	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(events)+len(extra)),
		DisplayTimeUnit: "ms",
		OtherData:       meta,
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat.Name(),
			TS:   float64(e.TS) / 1e3,
			Pid:  0,
			Tid:  int(e.Tid),
			Args: map[string]any{"arg": e.Arg},
		}
		switch {
		case e.Ph == 's' || e.Ph == 'f':
			ce.Ph = string(e.Ph)
			ce.ID = e.ID
			ce.Args = nil
			if e.Ph == 'f' {
				// Bind the arrowhead to the enclosing slice's start so
				// Perfetto draws it even when no span follows the finish.
				ce.BP = "e"
			}
		case e.Dur > 0:
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		default:
			ce.Ph = "i"
			ce.S = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	out.TraceEvents = append(out.TraceEvents, extra...)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("telemetry: encoding chrome trace: %w", err)
	}
	return bw.Flush()
}
