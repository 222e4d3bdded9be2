package trace

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ioa"
)

func TestArtifactRoundTrip(t *testing.T) {
	a := &Artifact{
		Target:  "detector:FD-P",
		N:       3,
		Steps:   128,
		Sched:   "random",
		Seed:    42,
		Crash:   []ioa.Loc{2, 0},
		Gate:    map[string]int{"crashAfter": 10, "crashGap": 5},
		GateLog: []GateVeto{{Step: 3, Action: "crash_2"}},
		Verdict: "afd: output after crash",
		Trace: T{
			ioa.Crash(2),
			ioa.FDOutput("FD-P", 0, "{2}"),
			ioa.Send(0, 1, "m"),
			ioa.Receive(1, 0, "m"),
		},
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Target != a.Target || b.N != a.N || b.Steps != a.Steps ||
		b.Sched != a.Sched || b.Seed != a.Seed || b.Verdict != a.Verdict {
		t.Fatalf("scalar fields differ: %+v vs %+v", b, a)
	}
	if len(b.Crash) != 2 || b.Crash[0] != 2 || b.Crash[1] != 0 {
		t.Fatalf("crash plan = %v", b.Crash)
	}
	if b.Gate["crashAfter"] != 10 || b.Gate["crashGap"] != 5 {
		t.Fatalf("gate params = %v", b.Gate)
	}
	if len(b.GateLog) != 1 || b.GateLog[0] != (GateVeto{Step: 3, Action: "crash_2"}) {
		t.Fatalf("gate log = %v", b.GateLog)
	}
	if !Equal(b.Trace, a.Trace) {
		t.Fatalf("trace differs: %v vs %v", b.Trace, a.Trace)
	}
	if b.Version != ArtifactVersion {
		t.Fatalf("version = %d", b.Version)
	}
}

// TestArtifactEveryKindRoundTrip: one action of every kind, including a
// send to peer 0, survives the wire unchanged.
func TestArtifactEveryKindRoundTrip(t *testing.T) {
	tr := T{
		ioa.Crash(1),
		ioa.Send(0, 1, "m"),
		ioa.Send(1, 0, "x"),
		ioa.Receive(1, 0, "m"),
		ioa.FDOutput("FD-Ω", 2, "0"),
		ioa.EnvInput("propose", 0, "1"),
		ioa.EnvOutput("decide", 0, "1"),
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, &Artifact{Target: "t", N: 3, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(b.Trace, tr) {
		t.Fatalf("round trip mismatch:\nwant %v\ngot  %v", tr, b.Trace)
	}
}

// TestArtifactStampsRoundTrip pins the live-run timing fields: one relative
// nanosecond stamp per trace event plus the wall-clock epoch must survive
// the wire, so a replayed live artifact can recompute wall-clock QoS
// offline; a simulated artifact (no stamps) must omit both keys entirely.
func TestArtifactStampsRoundTrip(t *testing.T) {
	a := &Artifact{
		Target: "gossip:FD-◇Q>FD-◇P",
		N:      2,
		Steps:  3,
		Sched:  "live",
		Trace: T{
			ioa.Crash(1),
			ioa.FDOutput("FD-◇P", 0, "{1}"),
		},
		Stamps: []int64{1_500, 2_000_000},
		Epoch:  1_700_000_000_000_000_000,
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Stamps) != 2 || b.Stamps[0] != 1_500 || b.Stamps[1] != 2_000_000 {
		t.Fatalf("stamps = %v, want [1500 2000000]", b.Stamps)
	}
	if b.Epoch != a.Epoch {
		t.Fatalf("epoch = %d, want %d", b.Epoch, a.Epoch)
	}
	if len(b.Stamps) != len(b.Trace) {
		t.Fatalf("stamps (%d) no longer parallel to trace (%d)", len(b.Stamps), len(b.Trace))
	}

	var sim bytes.Buffer
	if err := WriteArtifact(&sim, &Artifact{Target: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"stamps"`, `"epoch"`} {
		if strings.Contains(sim.String(), key) {
			t.Errorf("simulated artifact serializes %s despite having none", key)
		}
	}
}

func TestArtifactVersionMismatch(t *testing.T) {
	for _, in := range []string{`{"version": 99, "target": "x"}`, `{"version": 0, "target": "x"}`} {
		if _, err := ReadArtifact(strings.NewReader(in)); err == nil {
			t.Fatalf("unknown version accepted: %s", in)
		}
	}
}

// TestArtifactWritesEachActionOnce pins the version-2 layout: the actions
// table holds each distinct action once, in order of first occurrence, and
// events index into it.
func TestArtifactWritesEachActionOnce(t *testing.T) {
	a := &Artifact{Target: "t", N: 2, Trace: T{
		ioa.FDOutput("FD-P", 0, "{}"),
		ioa.Send(0, 1, "m"),
		ioa.FDOutput("FD-P", 0, "{}"),
		ioa.Crash(1),
		ioa.Send(0, 1, "m"),
	}}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"version":2`, `"events":[0,1,0,2,1]`} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact lacks %s: %s", want, out)
		}
	}
	if got := strings.Count(out, `"kind":`); got != 3 {
		t.Errorf("actions table has %d entries, want 3: %s", got, out)
	}
	if strings.Contains(out, "\n ") {
		t.Errorf("artifact is indented: %s", out)
	}
}

// TestArtifactReadsV1 loads a version-1 artifact checked in from the
// version-1 writer — a lossy gossip:FD-Q>FD-P run at n=3 with location 2
// crashed behind a crash-after gate — and requires its trace to survive a
// version-2 round trip unchanged.
func TestArtifactReadsV1(t *testing.T) {
	a := readV1Fixture(t)
	if a.Version != 1 {
		t.Fatalf("fixture version = %d, want 1", a.Version)
	}
	if len(a.GateLog) == 0 || a.Net == nil || len(a.NetLog) == 0 || len(a.Crash) == 0 {
		t.Fatalf("fixture lacks a gate log, net spec or crash plan: %+v", a)
	}
	if Count(a.Trace, func(x ioa.Action) bool { return x.Kind == ioa.KindCrash }) != 1 {
		t.Fatal("fixture trace has no crash event")
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(b.Trace, a.Trace) {
		t.Fatal("version-2 round trip changed the version-1 trace")
	}
	b.Version = a.Version
	if !reflect.DeepEqual(b, a) {
		t.Fatalf("version-2 round trip changed the header:\n%+v\n%+v", b, a)
	}
}

func readV1Fixture(t *testing.T) *Artifact {
	t.Helper()
	f, err := os.Open("testdata/artifact_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := ReadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestArtifactRejectsMalformed feeds ReadArtifact broken version-2 (and
// version-1) inputs; each must be rejected with an error naming the cause.
func TestArtifactRejectsMalformed(t *testing.T) {
	const fd = `{"kind":"fd","name":"FD-P","loc":0,"payload":"{}"}`
	cases := []struct {
		name, in, want string
	}{
		{"index out of range", `{"version":2,"actions":[` + fd + `],"events":[0,1]}`, "event 1 has action index 1"},
		{"negative index", `{"version":2,"actions":[` + fd + `],"events":[0,0,-1]}`, "event 2 has action index -1"},
		{"index without table", `{"version":2,"events":[0]}`, "event 0 has action index 0"},
		{"fractional index", `{"version":2,"actions":[` + fd + `],"events":[0.5]}`, "decoding artifact events"},
		{"oversized index", `{"version":2,"actions":[` + fd + `],"events":[4294967296]}`, "decoding artifact events"},
		{"unknown kind in actions", `{"version":2,"actions":[{"kind":"teleport","name":"x","loc":0}],"events":[0]}`, "unknown kind"},
		{"send without peer in actions", `{"version":2,"actions":[{"kind":"send","name":"send","loc":0,"payload":"m"}],"events":[0]}`, "lacks peer"},
		{"v1 events as indices", `{"version":1,"events":[0]}`, "decoding artifact events"},
		{"v2 events as objects", `{"version":2,"actions":[` + fd + `],"events":[` + fd + `]}`, "decoding artifact events"},
		{"fd without name in actions", `{"version":2,"actions":[{"kind":"fd","loc":0,"payload":"1"}],"events":[0]}`, "lacks name"},
		{"not json", `not json`, "decoding artifact"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadArtifact(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("malformed artifact accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestArtifactPeerZeroPreserved: peer 0 must survive the omitempty handling
// of the wire form.
func TestArtifactPeerZeroPreserved(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, &Artifact{Target: "t", N: 2, Trace: T{ioa.Send(1, 0, "m")}}); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trace[0].Peer != 0 {
		t.Fatalf("peer = %v, want 0", b.Trace[0].Peer)
	}
}

// TestArtifactCrashWithoutName: a crash entry may omit its name.
func TestArtifactCrashWithoutName(t *testing.T) {
	b, err := ReadArtifact(strings.NewReader(`{"version":2,"actions":[{"kind":"crash","loc":2}],"events":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	if b.Trace[0] != ioa.Crash(2) {
		t.Fatalf("got %v", b.Trace[0])
	}
}

// FuzzReadArtifact feeds ReadArtifact arbitrary bytes.  It must never
// panic, and any artifact it accepts must re-encode and re-read to an
// equal trace.
func FuzzReadArtifact(f *testing.F) {
	v1, err := os.ReadFile("testdata/artifact_v1.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	a, err := ReadArtifact(bytes.NewReader(v1))
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WriteArtifact(&v2, a); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add([]byte(`{"version":2,"actions":[{"kind":"crash","loc":1},{"kind":"receive","name":"receive","loc":0,"peer":2,"payload":"m"}],"events":[1,0,1]}`))
	f.Add([]byte(`{"version":1,"events":[{"kind":"fd","name":"FD-Ω","loc":0,"payload":"1"}]}`))
	f.Add([]byte(`{"version":2,"actions":[],"events":[-1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteArtifact(&buf, a); err != nil {
			t.Fatalf("re-encoding an accepted artifact: %v", err)
		}
		b, err := ReadArtifact(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted artifact: %v\n%s", err, buf.Bytes())
		}
		if !Equal(b.Trace, a.Trace) {
			t.Fatalf("round trip changed the trace:\n%v\n%v", b.Trace, a.Trace)
		}
	})
}

func TestArtifactEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, &Artifact{Target: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Trace) != 0 {
		t.Fatalf("trace = %v, want empty", b.Trace)
	}
}
