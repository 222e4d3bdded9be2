package chaos

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestExecuteDeterministic pins the replay-determinism contract: Execute is
// a pure function of Run, even under the seeded random scheduler with every
// gate family active.
func TestExecuteDeterministic(t *testing.T) {
	for _, kind := range Schedulers() {
		r := Run{
			Target: DetectorTarget{Family: "FD-Ω"},
			N:      3,
			Plan:   SamplePlan(sched.NewPRNG(5), 3, 2),
			Gates: GateSpec{
				CrashAfter: 40, CrashGap: 10,
				DelayNth: 2, DelayFor: 7,
				StarveFrom: 0, StarveTo: 1, StarveUntil: 25,
			},
			Sched: kind,
			Seed:  11,
			Steps: 400,
		}
		a, err := Execute(r)
		if err != nil {
			t.Fatalf("%s: Execute: %v", kind, err)
		}
		b, err := Execute(r)
		if err != nil {
			t.Fatalf("%s: re-Execute: %v", kind, err)
		}
		if !trace.Equal(a.Trace, b.Trace) {
			t.Errorf("%s: traces differ across identical runs (%d vs %d events)",
				kind, len(a.Trace), len(b.Trace))
		}
		if (a.Err == nil) != (b.Err == nil) {
			t.Errorf("%s: verdicts differ: %v vs %v", kind, a.Err, b.Err)
		}
		if len(a.GateLog) != len(b.GateLog) {
			t.Errorf("%s: gate logs differ: %d vs %d vetoes", kind, len(a.GateLog), len(b.GateLog))
		}
	}
}

// TestSamplePlanBounds checks sampled plans stay within the crash budget and
// never repeat a location.
func TestSamplePlanBounds(t *testing.T) {
	rng := sched.NewPRNG(1)
	const n, maxT = 5, 3
	sawNonEmpty := false
	for i := 0; i < 500; i++ {
		p := SamplePlan(rng, n, maxT)
		if len(p.Crash) > maxT {
			t.Fatalf("plan %v exceeds maxT=%d", p, maxT)
		}
		seen := map[ioa.Loc]bool{}
		for _, l := range p.Crash {
			if l < 0 || int(l) >= n {
				t.Fatalf("plan %v crashes out-of-range location %d", p, l)
			}
			if seen[l] {
				t.Fatalf("plan %v crashes %d twice", p, l)
			}
			seen[l] = true
		}
		sawNonEmpty = sawNonEmpty || len(p.Crash) > 0
	}
	if !sawNonEmpty {
		t.Error("500 samples and every plan was empty")
	}
	if got := SamplePlan(rng, 3, 0); len(got.Crash) != 0 {
		t.Errorf("maxT=0 sampled %v, want no faults", got)
	}
}

// TestSampleGatesBounds checks sampled gate magnitudes respect the
// fairness-preserving budget documented on SampleGates.
func TestSampleGatesBounds(t *testing.T) {
	rng := sched.NewPRNG(2)
	const n, steps = 4, 800
	for i := 0; i < 500; i++ {
		g := SampleGates(rng, n, steps)
		if g.CrashAfter > steps/2 || g.CrashGap > steps/8 {
			t.Fatalf("crash release out of bounds: %+v", g)
		}
		if g.DelayFor > steps/8 {
			t.Fatalf("delivery delay out of bounds: %+v", g)
		}
		if g.StarveUntil > steps/4 {
			t.Fatalf("starvation out of bounds: %+v", g)
		}
		if g.starves() && (g.StarveFrom == g.StarveTo || g.StarveFrom >= n || g.StarveTo >= n) {
			t.Fatalf("malformed starvation channel: %+v", g)
		}
		if g.partitions() {
			if g.PartitionMask >= 1<<uint(n)-1 {
				t.Fatalf("partition mask not a proper subset: %+v", g)
			}
			if !g.EventuallyFair() {
				t.Fatalf("sweep sampled a never-healing partition: %+v", g)
			}
			if g.PartitionAt > steps/4 || g.HealAt > g.PartitionAt+steps/4+1 {
				t.Fatalf("partition window out of bounds: %+v", g)
			}
		}
	}
}

// TestGateSpecParamsRoundTrip checks the artifact encoding of gate
// parameters is lossless for effective specs and normalizing for disabled
// ones.
func TestGateSpecParamsRoundTrip(t *testing.T) {
	specs := []GateSpec{
		NoGates(),
		{CrashAfter: 10, StarveFrom: -1, StarveTo: -1},
		{CrashAfter: 10, CrashGap: 3, StarveFrom: -1, StarveTo: -1},
		{DelayNth: 2, DelayFor: 5, StarveFrom: -1, StarveTo: -1},
		{StarveFrom: 0, StarveTo: 2, StarveUntil: 40},
		{CrashAfter: 1, CrashGap: 1, DelayNth: 1, DelayFor: 1,
			StarveFrom: 1, StarveTo: 0, StarveUntil: 9},
		{StarveFrom: -1, StarveTo: -1, PartitionMask: 0b0110, PartitionAt: 10, HealAt: 40},
		// Never-healing partition: HealAt ≤ PartitionAt must survive the trip.
		{StarveFrom: -1, StarveTo: -1, PartitionMask: 1, PartitionAt: 25},
		{CrashAfter: 5, DelayNth: 2, DelayFor: 3, StarveFrom: 0, StarveTo: 2, StarveUntil: 11,
			PartitionMask: 0b1010, PartitionAt: 1, HealAt: 2},
	}
	for _, g := range specs {
		if got := GatesFromParams(g.Params()); got != g {
			t.Errorf("round trip %+v → %v → %+v", g, g.Params(), got)
		}
	}
	// A half-specified delay is a no-op and must encode as absent.
	half := NoGates()
	half.DelayNth = 3
	if p := half.Params(); p != nil {
		t.Errorf("no-op delay encoded as %v, want nil", p)
	}
	if !half.IsZero() {
		t.Error("half-specified delay should be zero-effect")
	}
}

// TestCompiledDelayGate exercises the delivery-delay gate against synthetic
// actions: the DelayNth-th distinct delivery is vetoed for exactly DelayFor
// steps, and the veto log records each refusal.
func TestCompiledDelayGate(t *testing.T) {
	g := NoGates()
	g.DelayNth, g.DelayFor = 2, 5
	var log []trace.GateVeto
	gate := g.Compile(&log, nil)

	recv := func(i int) ioa.Action {
		return ioa.Action{Kind: ioa.KindReceive, Name: "receive", Loc: ioa.Loc(i), Peer: 0}
	}
	if !gate(10, ioa.TaskRef{}, recv(1)) {
		t.Fatal("1st distinct delivery should pass (only every 2nd is delayed)")
	}
	if gate(10, ioa.TaskRef{}, recv(2)) {
		t.Fatal("2nd distinct delivery should be delayed at its first step")
	}
	if gate(14, ioa.TaskRef{}, recv(2)) {
		t.Fatal("delayed delivery released too early")
	}
	if !gate(15, ioa.TaskRef{}, recv(2)) {
		t.Fatal("delayed delivery should release after DelayFor steps")
	}
	if !gate(10, ioa.TaskRef{}, ioa.Action{Kind: ioa.KindCrash}) {
		t.Fatal("non-delivery actions must pass a delay-only spec")
	}
	if len(log) != 2 {
		t.Fatalf("veto log recorded %d refusals, want 2", len(log))
	}
}

// TestCompiledStarvationGate exercises the channel-starvation gate: only the
// named channel is starved, and only until StarveUntil.
func TestCompiledStarvationGate(t *testing.T) {
	g := NoGates()
	g.StarveFrom, g.StarveTo, g.StarveUntil = 0, 1, 50
	gate := g.Compile(nil, nil)

	starved := ioa.Action{Kind: ioa.KindReceive, Name: "receive", Loc: 1, Peer: 0}
	other := ioa.Action{Kind: ioa.KindReceive, Name: "receive", Loc: 0, Peer: 1}
	if gate(49, ioa.TaskRef{}, starved) {
		t.Fatal("starved channel delivered before StarveUntil")
	}
	if !gate(50, ioa.TaskRef{}, starved) {
		t.Fatal("starved channel must resume at StarveUntil")
	}
	if !gate(0, ioa.TaskRef{}, other) {
		t.Fatal("reverse channel must not be starved")
	}
}

// TestParseTargetRoundTrip checks every sweepable target ID resolves back to
// a target with the same ID.
func TestParseTargetRoundTrip(t *testing.T) {
	ids := []string{SlandererID}
	for _, target := range DefaultTargets() {
		ids = append(ids, target.ID())
	}
	for _, id := range ids {
		target, err := ParseTarget(id)
		if err != nil {
			t.Errorf("ParseTarget(%q): %v", id, err)
			continue
		}
		if target.ID() != id {
			t.Errorf("ParseTarget(%q).ID() = %q", id, target.ID())
		}
	}
	if _, err := ParseTarget("nonsense"); err == nil {
		t.Error("ParseTarget accepted an unknown ID")
	}
}

// TestSlandererFlaggedShrunkReplayed is the harness's positive control, end
// to end: the deliberately broken detector is flagged, the failure shrinks
// without swapping its clause, and the shrunk artifact replays byte-for-byte
// deterministically to the same verdict.
func TestSlandererFlaggedShrunkReplayed(t *testing.T) {
	v, err := Execute(Run{Target: DetectorTarget{Family: "slanderer"}, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Failed() {
		t.Fatal("broken detector passed its checker")
	}
	clause := errClause(v.Err)
	if clause != "(strong accuracy)" {
		t.Fatalf("slanderer failed clause %q, want strong accuracy", clause)
	}

	min, tries := Shrink(v)
	if !min.Failed() || errClause(min.Err) != clause {
		t.Fatalf("shrink swapped the failure: %v (after %d tries)", min.Err, tries)
	}
	if min.Run.steps() > v.Run.steps() {
		t.Errorf("shrink grew the step bound: %d → %d", v.Run.steps(), min.Run.steps())
	}

	// Artifact round trip.
	var buf bytes.Buffer
	if err := trace.WriteArtifact(&buf, min.Artifact()); err != nil {
		t.Fatal(err)
	}
	a, err := trace.ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Replay must reproduce the recorded verdict and trace exactly.
	w, err := Replay(a)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if !w.Failed() || w.Err.Error() != min.Err.Error() {
		t.Fatalf("replay verdict %v, recorded %v", w.Err, min.Err)
	}
}

// TestReplayAcceptsV1Artifact replays the version-1 artifact checked in
// under internal/trace/testdata: an artifact written before the compact
// format must still load, pass the cross-engine pass, and re-execute to its
// recorded verdict and trace.
func TestReplayAcceptsV1Artifact(t *testing.T) {
	f, err := os.Open("../trace/testdata/artifact_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := trace.ReadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 1 || len(a.Trace) == 0 {
		t.Fatalf("fixture: version %d, %d events; want a non-empty version-1 trace", a.Version, len(a.Trace))
	}
	if err := ReplayThroughSystem(a); err != nil {
		t.Fatalf("cross-engine replay of the version-1 artifact: %v", err)
	}
	if _, err := Replay(a); err != nil {
		t.Fatalf("replay of the version-1 artifact: %v", err)
	}
}

// TestReplayDetectsTamperedVerdict checks Replay refuses an artifact whose
// recorded verdict contradicts the fresh execution.
func TestReplayDetectsTamperedVerdict(t *testing.T) {
	v, err := Execute(Run{Target: DetectorTarget{Family: "slanderer"}, N: 3, Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Failed() {
		t.Fatal("expected a failing run to tamper with")
	}
	a := v.Artifact()
	a.Verdict = "" // claim the run passed
	if _, err := Replay(a); err == nil {
		t.Error("replay accepted an artifact with a falsified verdict")
	} else if !strings.Contains(err.Error(), "does not match recorded") {
		t.Errorf("unexpected replay error: %v", err)
	}
}

// TestShrinkIdentityOnPass checks Shrink is the identity on passing runs.
func TestShrinkIdentityOnPass(t *testing.T) {
	v, err := Execute(Run{Target: DetectorTarget{Family: "FD-Ω"}, N: 2, Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if v.Failed() {
		t.Fatalf("healthy run failed: %v", v.Err)
	}
	if min, tries := Shrink(v); tries != 0 || min.Failed() {
		t.Errorf("Shrink spent %d tries on a passing run", tries)
	}
}

// TestCompiledPartitionGate exercises the compiled partition gate: cross-side
// deliveries are vetoed (and logged) exactly inside the window, and the
// telemetry observer flips GPartitionActive and samples the healed duration
// into HPartitionSteps without ever vetoing anything itself.
func TestCompiledPartitionGate(t *testing.T) {
	g := NoGates()
	g.PartitionMask, g.PartitionAt, g.HealAt = 0b01, 5, 12
	reg := telemetry.NewRegistry()
	var log []trace.GateVeto
	gate := g.Compile(&log, reg)

	cross := ioa.Action{Kind: ioa.KindReceive, Name: ioa.NameReceive, Loc: 1, Peer: 0}
	crash := ioa.Action{Kind: ioa.KindCrash, Name: ioa.NameCrash, Loc: 0}
	if !gate(4, ioa.TaskRef{}, cross) {
		t.Fatal("cross-side delivery vetoed before PartitionAt")
	}
	if gate(5, ioa.TaskRef{}, cross) {
		t.Fatal("cross-side delivery admitted inside the partition window")
	}
	// A non-delivery consult inside the window reaches the observer (the
	// conjunction short-circuits on the vetoed delivery above).
	if !gate(6, ioa.TaskRef{}, crash) {
		t.Fatal("partition gate vetoed a crash")
	}
	if got := reg.Value(telemetry.GPartitionActive); got != 1 {
		t.Errorf("partition_active = %d inside the window, want 1", got)
	}
	if gate(11, ioa.TaskRef{}, cross) {
		t.Fatal("cross-side delivery admitted at the last partitioned step")
	}
	if !gate(12, ioa.TaskRef{}, cross) {
		t.Fatal("cross-side delivery vetoed after HealAt")
	}
	if got := reg.Value(telemetry.GPartitionActive); got != 0 {
		t.Errorf("partition_active = %d after heal, want 0", got)
	}
	h := reg.Hist(telemetry.HPartitionSteps)
	if h.Count() != 1 || h.Sum() != int64(g.HealAt-g.PartitionAt) {
		t.Errorf("partition_steps histogram: count %d sum %d, want 1 observation of %d",
			h.Count(), h.Sum(), g.HealAt-g.PartitionAt)
	}
	if len(log) != 2 {
		t.Errorf("veto log recorded %d refusals, want 2", len(log))
	}
}

// TestShrinkKeepsPartitionClause: a failure that genuinely needs the
// partition — the heal lands so late that the isolated location cannot learn
// the crash set in the remaining budget — must keep its partition clause
// through shrinking.  Without the preservation guard, zeroing the gate spec
// would "simplify" the reproducer into a passing run.
func TestShrinkKeepsPartitionClause(t *testing.T) {
	r := Run{
		Target: GossipTarget{Source: "FD-Q", Out: "FD-P"}, N: 3,
		Plan: system.CrashOf(1),
		Gates: GateSpec{StarveFrom: -1, StarveTo: -1,
			PartitionMask: 0b100, PartitionAt: 1, HealAt: 598},
		Sched: SchedRoundRobin, Steps: 600,
	}
	v, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Failed() {
		t.Fatal("late-healing partition should defeat strong completeness")
	}
	clause := errClause(v.Err)
	if !strings.Contains(clause, "completeness") {
		t.Fatalf("unexpected clause %q", clause)
	}
	min, _ := Shrink(v)
	if !min.Failed() || errClause(min.Err) != clause {
		t.Fatalf("shrink swapped the clause: %v", min.Err)
	}
	if min.Run.Gates.PartitionMask == 0 {
		t.Error("shrink silently dropped the partition clause the failure needs")
	}
	// The control: without the partition the same run passes, so the
	// shrinker's candidates genuinely tried and rejected dropping it.
	ctl := r
	ctl.Gates = NoGates()
	w, err := Execute(ctl)
	if err != nil {
		t.Fatal(err)
	}
	if w.Failed() {
		t.Fatalf("un-partitioned control failed: %v", w.Err)
	}
}

// TestGateCompositionDeterministic composes every adversary plane at once —
// lossy links (drop, dup, reorder), delivery delay, crash release, and a
// healing partition — under each scheduler, and requires bit-identical
// re-execution plus a clean artifact replay through both engines.
func TestGateCompositionDeterministic(t *testing.T) {
	for _, kind := range Schedulers() {
		r := Run{
			Target: GossipTarget{Source: "FD-Q", Out: "FD-P", Forward: true}, N: 4,
			Plan: system.CrashOf(2),
			Gates: GateSpec{CrashAfter: 30, CrashGap: 10,
				DelayNth: 3, DelayFor: 9, StarveFrom: -1, StarveTo: -1,
				PartitionMask: 0b0011, PartitionAt: 50, HealAt: 160},
			Net:   system.NetSpec{Seed: 7, Drop: 100, Dup: 100, Reorder: 100},
			Sched: kind, Seed: 13, Steps: 700,
		}
		a, err := Execute(r)
		if err != nil {
			t.Fatalf("%s: Execute: %v", kind, err)
		}
		b, err := Execute(r)
		if err != nil {
			t.Fatalf("%s: re-Execute: %v", kind, err)
		}
		if !trace.Equal(a.Trace, b.Trace) {
			t.Errorf("%s: composed-adversary traces differ (%d vs %d events)",
				kind, len(a.Trace), len(b.Trace))
		}
		if _, err := Replay(a.Artifact()); err != nil {
			t.Errorf("%s: artifact replay: %v", kind, err)
		}
	}
}

// TestStopGatedVsStopQuiescent distinguishes the two ways a fully
// partitioned network ends a quiescing run: a permanent partition *gate*
// leaves cross-side deliveries enabled-but-vetoed (StopGated), while a cut
// *topology* makes the same sends vanish so nothing is ever enabled
// (StopQuiescent).  Same reachability, opposite stall diagnosis.
func TestStopGatedVsStopQuiescent(t *testing.T) {
	gated := Run{
		Target: URBTarget{}, N: 3,
		Gates: GateSpec{StarveFrom: -1, StarveTo: -1, PartitionMask: 0b001},
		Sched: SchedRoundRobin, Steps: 50_000,
	}
	v, err := Execute(gated)
	if err != nil {
		t.Fatal(err)
	}
	if v.Reason != sched.StopGated {
		t.Errorf("permanent partition gate: stop reason %q, want %q", v.Reason, sched.StopGated)
	}
	quiet := Run{
		Target: URBTarget{}, N: 3,
		Net:   system.NetSpec{Topo: system.CutTopology(3, 0)},
		Sched: SchedRoundRobin, Steps: 50_000,
	}
	w, err := Execute(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if w.Reason != sched.StopQuiescent {
		t.Errorf("cut topology: stop reason %q, want %q", w.Reason, sched.StopQuiescent)
	}
}
