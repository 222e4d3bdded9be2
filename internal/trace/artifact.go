package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ioa"
)

// ArtifactVersion is the wire-format version WriteArtifact writes.
// ReadArtifact reads it and version 1.
//
// Version 1 carried the trace as "events", one jsonEvent object per event.
// Version 2 writes each distinct action once: "actions" lists the trace's
// distinct actions in order of first occurrence, each in jsonEvent form, and
// "events" holds one index into "actions" per trace event.  Traces repeat a
// few actions many times (a 3-location chaos run: ~12 distinct in ~2,800
// events), so the trace costs ~4 bytes per event instead of ~80.
const ArtifactVersion = 2

// GateVeto records one scheduling veto by an adversarial gate: the step
// counter at which an enabled action was held back, and the action.  The
// veto log is informational — replay determinism comes from re-deriving the
// gates from the recorded parameters, not from playing the log back — but
// it makes a shrunk reproducer legible without re-running it.
type GateVeto struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
}

// LinkEvent records one non-deliver decision of a lossy link: the directed
// link ("from>to"), the 0-based per-link send index the decision applied
// to, and the outcome ("drop", "dup", "reorder").  Like the gate-veto log,
// it is informational — replay determinism comes from re-deriving every
// decision from the recorded NetWire parameters — but it makes a lossy
// reproducer legible without re-running it.
type LinkEvent struct {
	Link    string `json:"link"`
	Seq     uint64 `json:"seq"`
	Outcome string `json:"outcome"`
}

// NetWire is the artifact form of an adversarial network: the topology
// descriptor (system.ParseTopology round-trips it), the link-decision seed,
// and the permille loss rates.  A nil NetWire means the reliable full mesh.
type NetWire struct {
	Topo    string `json:"topo,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Drop    int    `json:"drop,omitempty"`
	Dup     int    `json:"dup,omitempty"`
	Reorder int    `json:"reorder,omitempty"`
}

// Artifact is a self-contained, replayable record of one chaos run: the
// target system, the full randomness (seed), the fault plan, the gate
// parameters, and the verdict.  Everything the run consumed is a
// deterministic function of these fields, so feeding an artifact back
// through the chaos runner reproduces the identical execution and verdict.
//
// Gate holds named integer parameters whose interpretation belongs to the
// harness that wrote the artifact (package chaos documents its keys); the
// trace package only defines the wire schema.
type Artifact struct {
	Version int            `json:"version"`
	Target  string         `json:"target"`
	N       int            `json:"n"`
	Steps   int            `json:"steps"`
	Sched   string         `json:"sched"`
	Seed    int64          `json:"seed"`
	Crash   []ioa.Loc      `json:"crash"`
	Gate    map[string]int `json:"gate,omitempty"`
	GateLog []GateVeto     `json:"gateLog,omitempty"`
	// Net records the adversarial network the run executed over (nil: the
	// reliable full mesh); NetLog is the bounded log of its non-deliver
	// link decisions.  Replays reconstruct the network from Net alone.
	Net    *NetWire    `json:"net,omitempty"`
	NetLog []LinkEvent `json:"netLog,omitempty"`
	// Stamps, present on artifacts of live runs, holds one wall-clock
	// timestamp per Trace event: nanoseconds elapsed from the run's start to
	// the event (relative offsets, not absolute times).  Epoch anchors them:
	// the run's start instant in Unix nanoseconds.  Together they let a
	// replayed live artifact recompute wall-clock QoS (detection time,
	// mistake duration, propagation latency) offline; simulated artifacts
	// omit both and QoS falls back to step indices.  Informational for
	// replay, which never consumes timing.
	Stamps  []int64 `json:"stamps,omitempty"`
	Epoch   int64   `json:"epoch,omitempty"`
	Verdict string  `json:"verdict,omitempty"`
	// TraceRef, when set, names the Chrome trace_event file recorded
	// alongside this artifact (a relative path or URL).  The cross-link runs
	// both ways: the telemetry trace carries the artifact path in its
	// otherData metadata, and chaos.ReplayInstrumented re-traces the run the
	// artifact records.  Informational; replay ignores it.
	TraceRef string `json:"traceRef,omitempty"`
	Trace    T      `json:"-"`
}

// artifactWire is Artifact with the trace in wire form.  WriteArtifact
// fills Events with action-table indices; ReadArtifact keeps it raw until
// the version says how to decode it.
type artifactWire[E any] struct {
	Artifact
	Actions []jsonEvent `json:"actions,omitempty"`
	Events  E           `json:"events,omitempty"`
}

// WriteArtifact writes the artifact as compact version-2 JSON: the header
// fields, the table of distinct actions, and one table index per event.
func WriteArtifact(w io.Writer, a *Artifact) error {
	index := make(map[ioa.Action]int32)
	var table T
	events := make([]int32, len(a.Trace))
	for i, act := range a.Trace {
		k, ok := index[act]
		if !ok {
			k = int32(len(table))
			index[act] = k
			table = append(table, act)
		}
		events[i] = k
	}
	wire := artifactWire[[]int32]{Artifact: *a, Actions: encodeEvents(table), Events: events}
	wire.Version = ArtifactVersion
	return json.NewEncoder(w).Encode(wire)
}

// ReadArtifact reads an artifact of version 1 or 2.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	var wire artifactWire[json.RawMessage]
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("trace: decoding artifact: %w", err)
	}
	var t T
	var err error
	switch wire.Version {
	case 1:
		t, err = decodeV1(wire.Events)
	case 2:
		t, err = decodeV2(wire.Actions, wire.Events)
	default:
		return nil, fmt.Errorf("trace: artifact version %d, want 1 or %d", wire.Version, ArtifactVersion)
	}
	if err != nil {
		return nil, err
	}
	a := wire.Artifact
	a.Trace = t
	return &a, nil
}

// decodeV1 decodes a version-1 events array: one jsonEvent per event.
func decodeV1(raw json.RawMessage) (T, error) {
	var events []jsonEvent
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &events); err != nil {
			return nil, fmt.Errorf("trace: decoding artifact events: %w", err)
		}
	}
	return decodeEvents(events)
}

// decodeV2 decodes a version-2 trace: the action table, validated like
// version-1 events, and the per-event indices into it, each range-checked.
func decodeV2(actions []jsonEvent, raw json.RawMessage) (T, error) {
	table, err := decodeEvents(actions)
	if err != nil {
		return nil, fmt.Errorf("trace: artifact actions table: %w", err)
	}
	var events []int32
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &events); err != nil {
			return nil, fmt.Errorf("trace: decoding artifact events: %w", err)
		}
	}
	t := make(T, len(events))
	for i, k := range events {
		if k < 0 || int(k) >= len(table) {
			return nil, fmt.Errorf("trace: event %d has action index %d, table has %d actions", i, k, len(table))
		}
		t[i] = table[k]
	}
	return t, nil
}
