// Golden-trace regression suite for the simulation-core fast path: every
// scheduler must produce byte-identical executions (trace and final state
// encoding) for fixed seeds before and after the action-routing index and
// incremental ready-set.  The golden hashes below were captured on the
// pre-fast-path tree; any schedule drift — a different delivery order, a
// different candidate set, a different PRNG consumption pattern — changes
// the hash and fails the test.
//
// To re-pin after an *intentional* schedule change (e.g. a scheduler PRNG
// swap), run with GOLDEN_PRINT=1 and paste the printed table:
//
//	GOLDEN_PRINT=1 go test -run TestGoldenTraces -v
package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// goldenHash digests an executed system: every external event in order, a
// separator, then the canonical encoding of the final composed state.
func goldenHash(sys *ioa.System) string {
	h := sha256.New()
	for _, a := range sys.Trace() {
		h.Write([]byte(a.String()))
		h.Write([]byte{'\n'})
	}
	h.Write([]byte{0})
	h.Write([]byte(sys.Encode()))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// detectorSystem is the Figure-1 composition the E1 benchmark uses: the P
// detector, the full channel mesh, and a crash automaton.
func detectorSystem(t testing.TB, n int, plan system.FaultPlan) *ioa.System {
	t.Helper()
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		t.Fatal(err)
	}
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.NewCrash(plan))
	return ioa.MustNewSystem(autos...)
}

// trackedSystem swaps the mesh for send-stamping channels so the
// deliver-last-sent-first priority has stamps to rank by.
func trackedSystem(t testing.TB, n int, plan system.FaultPlan) *ioa.System {
	t.Helper()
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		t.Fatal(err)
	}
	clock := system.NewSendClock()
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, system.TrackedChannels(n, clock)...)
	autos = append(autos, system.NewCrash(plan))
	return ioa.MustNewSystem(autos...)
}

// consensusSystem is the Section-9.3 system S under Ω with a fixed fault
// plan and mixed proposals.
func consensusSystem(t testing.TB, n int, plan system.FaultPlan) *ioa.System {
	t.Helper()
	d, err := afd.Lookup(afd.FamilyOmega, n)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i % 2
	}
	sys, err := consensus.Build(consensus.BuildSpec{
		N: n, Family: afd.FamilyOmega, Det: d.Automaton(n),
		Crash: plan.Crash, Values: vals,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// lifoPrio ranks channel deliveries by send stamp (newest first), matching
// the chaos SchedLIFO adversary.
func lifoPrio(sys *ioa.System) sched.Priority {
	return func(tr ioa.TaskRef, act ioa.Action) int {
		if tc, ok := sys.Automata()[tr.Auto].(*system.TrackedChannel); ok {
			if s, ok := tc.HeadStamp(); ok {
				return int(s)
			}
		}
		return 0
	}
}

// goldenCases enumerates every (composition, scheduler, seed) pinned by the
// suite.  Each case returns the executed system.
var goldenCases = []struct {
	name string
	want string
	run  func(t testing.TB) *ioa.System
}{
	{"rr/detector/n4/crash1", "GOLDEN_RR_DET", func(t testing.TB) *ioa.System {
		sys := detectorSystem(t, 4, system.CrashOf(1))
		sched.RoundRobin(sys, sched.Options{MaxSteps: 600, Gate: sched.CrashesAfter(40, 20)})
		return sys
	}},
	{"rr/consensus/n3/crash0", "GOLDEN_RR_CONS", func(t testing.TB) *ioa.System {
		sys := consensusSystem(t, 3, system.CrashOf(0))
		sched.RoundRobin(sys, sched.Options{MaxSteps: 2000, Gate: sched.CrashesAfter(50, 0)})
		return sys
	}},
	{"random/detector/n4/seed1", "GOLDEN_RAND_1", func(t testing.TB) *ioa.System {
		sys := detectorSystem(t, 4, system.CrashOf(1))
		sched.Random(sys, 1, sched.Options{MaxSteps: 600, Gate: sched.CrashesAfter(40, 20)})
		return sys
	}},
	{"random/detector/n4/seed2", "GOLDEN_RAND_2", func(t testing.TB) *ioa.System {
		sys := detectorSystem(t, 4, system.CrashOf(1))
		sched.Random(sys, 2, sched.Options{MaxSteps: 600, Gate: sched.CrashesAfter(40, 20)})
		return sys
	}},
	{"random/consensus/n3/seed7", "GOLDEN_RAND_CONS", func(t testing.TB) *ioa.System {
		sys := consensusSystem(t, 3, system.CrashOf(0))
		sched.Random(sys, 7, sched.Options{MaxSteps: 2000, Gate: sched.CrashesAfter(50, 0)})
		return sys
	}},
	{"randprio/tracked/n4/seed9", "GOLDEN_PRIO_9", func(t testing.TB) *ioa.System {
		sys := trackedSystem(t, 4, system.CrashOf(2))
		sched.RandomPriority(sys, sched.NewPRNG(9), lifoPrio(sys),
			sched.Options{MaxSteps: 600, Gate: sched.CrashesAfter(40, 20)})
		return sys
	}},
	{"randprio/flat/n4/seed3", "GOLDEN_PRIO_3", func(t testing.TB) *ioa.System {
		sys := detectorSystem(t, 4, system.NoFaults())
		sched.RandomPriority(sys, sched.NewPRNG(3),
			func(ioa.TaskRef, ioa.Action) int { return 0 },
			sched.Options{MaxSteps: 400})
		return sys
	}},
	{"drive/detector/n4", "GOLDEN_DRIVE", func(t testing.TB) *ioa.System {
		sys := detectorSystem(t, 4, system.CrashOf(3))
		sched.Drive(sys, sched.StrategyFunc(func(s *ioa.System, enabled []ioa.TaskRef, _ []ioa.Action) int {
			return (s.Steps() * 7) % len(enabled)
		}), sched.Options{MaxSteps: 500})
		return sys
	}},
}

// goldenChaosCases pin the chaos runner end to end: Execute is a pure
// function of Run, so its trace hash is pinned per scheduler kind.
var goldenChaosCases = []struct {
	name string
	want string
	run  chaos.Run
}{
	{"chaos/rr/omega", "GOLDEN_CHAOS_RR", chaos.Run{
		Target: chaos.DetectorTarget{Family: "FD-Ω"}, N: 3,
		Plan:  system.CrashOf(1),
		Gates: chaos.GateSpec{CrashAfter: 30, CrashGap: 10, StarveFrom: -1, StarveTo: -1},
		Sched: chaos.SchedRoundRobin, Seed: 0, Steps: 500,
	}},
	{"chaos/random/omega", "GOLDEN_CHAOS_RAND", chaos.Run{
		Target: chaos.DetectorTarget{Family: "FD-Ω"}, N: 3,
		Plan:  system.CrashOf(1),
		Gates: chaos.GateSpec{CrashAfter: 30, CrashGap: 10, StarveFrom: -1, StarveTo: -1},
		Sched: chaos.SchedRandom, Seed: 5, Steps: 500,
	}},
	{"chaos/lifo/consensus", "GOLDEN_CHAOS_LIFO", chaos.Run{
		Target: chaos.ConsensusTarget{Family: "FD-Ω"}, N: 3,
		Plan:  system.CrashOf(0),
		Gates: chaos.GateSpec{CrashAfter: 40, StarveFrom: -1, StarveTo: -1},
		Sched: chaos.SchedLIFO, Seed: 11, Steps: 2500,
	}},
}

// golden maps case name → pinned hash.  Captured with GOLDEN_PRINT=1 on the
// tree before the fast path landed.  Two intentional PR-2 schedule changes
// re-pinned entries: the math/rand → SplitMix64 port of sched.Random (every
// random/* and chaos/random entry), and the CrashesAfter release-ratchet fix
// (entries whose gated run had admitted a crash candidate without drawing
// it: random/detector seeds 1–2 and randprio/tracked; note the others are
// unchanged, confirming the fix moves only crash timing).
var golden = map[string]string{
	"rr/detector/n4/crash1":     "dd63a91c08d3bedc",
	"rr/consensus/n3/crash0":    "a6092a52e4f8b90e",
	"random/detector/n4/seed1":  "db5cafe89762a9ee",
	"random/detector/n4/seed2":  "1cff674df96c79d2",
	"random/consensus/n3/seed7": "865ff1a453765fa3",
	"randprio/tracked/n4/seed9": "f9eaca36fc462e2d",
	"randprio/flat/n4/seed3":    "acb29b708fcdfeed",
	"drive/detector/n4":         "6953d8cefc141409",
	"chaos/rr/omega":            "0d88dc593e3e362a",
	"chaos/random/omega":        "78a5887bd9405e3a",
	"chaos/lifo/consensus":      "8a8efa313f26d148",
}

// viaCodec passes an artifact through trace.WriteArtifact and
// trace.ReadArtifact, so replay tests judge what a reader of the file gets.
func viaCodec(t *testing.T, a *trace.Artifact) *trace.Artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := trace.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Equal(b.Trace, a.Trace) {
		t.Fatal("artifact codec round trip changed the trace")
	}
	return b
}

// TestGoldenCrossEngineReplay closes the loop on artifact replay: each
// pinned chaos run is executed, converted to its wire artifact, written and
// read back through the artifact codec, and replayed through BOTH engines —
// the scheduler re-execution (same kind, seed, gates) and the
// event-by-event ioa.ReplayTrace pass over a freshly built fast-path
// system, which requires every recorded event to be enabled by some task of
// the incremental ready-set and the fresh system's trace to be
// byte-identical to the record.  Replay used to stop at the verdict
// comparison, so an artifact whose trace no current system could perform
// still "replayed" — the cross-engine pass is the fix under test.
func TestGoldenCrossEngineReplay(t *testing.T) {
	for _, tc := range goldenChaosCases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := chaos.Execute(tc.run)
			if err != nil {
				t.Fatal(err)
			}
			a := viaCodec(t, v.Artifact())
			if _, err := chaos.Replay(a); err != nil {
				t.Fatalf("replay diverged: %v", err)
			}
			// The cross-engine half in isolation, so a scheduler-replay
			// failure can't mask it.
			if err := chaos.ReplayThroughSystem(a); err != nil {
				t.Fatalf("cross-engine replay: %v", err)
			}
			// Tamper control: corrupting one recorded event must be caught
			// by the fresh system, not silently re-traced.
			bad := *a
			bad.Trace = append([]ioa.Action(nil), a.Trace...)
			bad.Trace[len(bad.Trace)/2].Payload += "-tampered"
			if err := chaos.ReplayThroughSystem(&bad); err == nil {
				t.Fatal("tampered trace replayed cleanly through a fresh system")
			}
		})
	}
}

// TestGoldenTracesTelemetryOn re-runs representative pinned cases with the
// full telemetry plane attached — system sink, channel instrumentation,
// scheduler counters, and the suspicion-observer gate — and requires the
// SAME golden hashes as the metered-off runs.  This is the "attaching
// telemetry never perturbs scheduling" guarantee: instrumentation is
// strictly read-only (the observer gate always admits), so the trace and
// final state must stay byte-identical.
func TestGoldenTracesTelemetryOn(t *testing.T) {
	cases := []struct {
		name string
		// wantSusp: the composition emits suspect-set outputs, so the observer
		// gate must count additions (Ω emits leader picks, which it skips).
		wantSusp bool
		run      func(t testing.TB, reg *telemetry.Registry) *ioa.System
	}{
		{"rr/detector/n4/crash1", true, func(t testing.TB, reg *telemetry.Registry) *ioa.System {
			sys := detectorSystem(t, 4, system.CrashOf(1))
			sys.SetTelemetry(reg)
			system.InstrumentChannels(sys, reg)
			sched.RoundRobin(sys, sched.Options{
				MaxSteps:  600,
				Gate:      sched.Gates(sched.CrashesAfter(40, 20), chaos.SuspicionGate(reg)),
				Telemetry: reg,
			})
			return sys
		}},
		{"random/detector/n4/seed1", true, func(t testing.TB, reg *telemetry.Registry) *ioa.System {
			sys := detectorSystem(t, 4, system.CrashOf(1))
			sys.SetTelemetry(reg)
			system.InstrumentChannels(sys, reg)
			sched.Random(sys, 1, sched.Options{
				MaxSteps:  600,
				Gate:      sched.Gates(sched.CrashesAfter(40, 20), chaos.SuspicionGate(reg)),
				Telemetry: reg,
			})
			return sys
		}},
		{"random/consensus/n3/seed7", false, func(t testing.TB, reg *telemetry.Registry) *ioa.System {
			sys := consensusSystem(t, 3, system.CrashOf(0))
			sys.SetTelemetry(reg)
			system.InstrumentChannels(sys, reg)
			sched.Random(sys, 7, sched.Options{
				MaxSteps:  2000,
				Gate:      sched.Gates(sched.CrashesAfter(50, 0), chaos.SuspicionGate(reg)),
				Telemetry: reg,
			})
			return sys
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			sys := tc.run(t, reg)
			if got, want := goldenHash(sys), golden[tc.name]; got != want {
				t.Errorf("telemetry perturbed the schedule: hash = %s, pinned %s", got, want)
			}
			if reg.Value(telemetry.CEventsApplied) != int64(sys.Steps()) {
				t.Errorf("events_applied = %d, want %d (telemetry attached but not counting)",
					reg.Value(telemetry.CEventsApplied), sys.Steps())
			}
			// Suspect-set cases crash a location under a complete detector,
			// so the observer gate must have seen suspicions appear; detection
			// latency is recorded once per (observer, crashed) pair.
			if tc.wantSusp && reg.Value(telemetry.CSuspicionAdded) == 0 {
				t.Error("suspicion observer attached but counted no additions")
			}
			if tc.wantSusp && (reg.Hist(telemetry.HDetectionLatency) == nil ||
				reg.Hist(telemetry.HDetectionLatency).Count() == 0) {
				t.Error("no detection latencies observed in a crashing run")
			}
		})
	}
}

func TestGoldenTraces(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") != ""
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenHash(tc.run(t))
			if print {
				fmt.Printf("GOLDEN\t%q: %q,\n", tc.name, got)
				return
			}
			if want := golden[tc.name]; got != want {
				t.Errorf("schedule drift: hash = %s, pinned %s", got, want)
			}
		})
	}
	for _, tc := range goldenChaosCases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := chaos.Execute(tc.run)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, a := range v.Trace {
				h.Write([]byte(a.String()))
				h.Write([]byte{'\n'})
			}
			got := hex.EncodeToString(h.Sum(nil))[:16]
			if print {
				fmt.Printf("GOLDEN\t%q: %q,\n", tc.name, got)
				return
			}
			if want := golden[tc.name]; got != want {
				t.Errorf("schedule drift: hash = %s, pinned %s", got, want)
			}
			if v.Err != nil {
				t.Errorf("specification violated: %v", v.Err)
			}
		})
	}
}

// goldenLossyCases pin the adversarial network layer end to end: runs over
// lossy links and partitions must be bit-for-bit replayable from the spec
// alone (every drop/dup/reorder decision is a pure function of the net
// seed and the per-link send index — no decision log is consulted).
var goldenLossyCases = []struct {
	name string
	run  chaos.Run
}{
	{"lossy/gossip/random", chaos.Run{
		Target: chaos.GossipTarget{Source: afd.FamilyQ, Out: afd.FamilyP}, N: 4,
		Plan: system.CrashOf(1),
		Gates: chaos.GateSpec{StarveFrom: -1, StarveTo: -1,
			PartitionMask: 0b0011, PartitionAt: 60, HealAt: 200},
		Net:   system.NetSpec{Seed: 42, Drop: 150, Dup: 120, Reorder: 120},
		Sched: chaos.SchedRandom, Seed: 9, Steps: 900,
	}},
	{"lossy/relay/lifo", chaos.Run{
		Target: chaos.GossipTarget{Source: afd.FamilyQ, Out: afd.FamilyP, Forward: true}, N: 3,
		Plan:  system.CrashOf(2),
		Gates: chaos.GateSpec{CrashAfter: 25, StarveFrom: -1, StarveTo: -1},
		Net:   system.NetSpec{Seed: 5, Drop: 100, Dup: 100},
		Sched: chaos.SchedLIFO, Seed: 3, Steps: 800,
	}},
}

// goldenLossy maps lossy case name → pinned trace hash (GOLDEN_PRINT=1 to
// re-pin after an intentional change).
var goldenLossy = map[string]string{
	"lossy/gossip/random": "f0f68fb5b594a89f",
	"lossy/relay/lifo":    "ef182b4ed3da68ce",
}

func lossyHash(v chaos.Verdict) string {
	h := sha256.New()
	for _, a := range v.Trace {
		h.Write([]byte(a.String()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGoldenLossyReplay pins lossy executions and closes the replay loop:
// the artifact (which records only the net spec, not the decisions), read
// back through the artifact codec, must replay bit-for-bit through the
// scheduler re-execution AND the cross-engine event-by-event pass, the
// recorded NetLog must be non-empty, and both a tampered trace and a
// tampered net seed must be rejected.
func TestGoldenLossyReplay(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") != ""
	for _, tc := range goldenLossyCases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := chaos.Execute(tc.run)
			if err != nil {
				t.Fatal(err)
			}
			got := lossyHash(v)
			if print {
				fmt.Printf("GOLDEN\t%q: %q,\n", tc.name, got)
			} else if want := goldenLossy[tc.name]; got != want {
				t.Errorf("lossy schedule drift: hash = %s, pinned %s", got, want)
			}
			if len(v.NetLog) == 0 {
				t.Error("lossy run recorded no link events")
			}
			a := viaCodec(t, v.Artifact())
			if a.Net == nil {
				t.Fatal("artifact of a lossy run has no net spec")
			}
			if _, err := chaos.Replay(a); err != nil {
				t.Fatalf("replay diverged: %v", err)
			}
			if err := chaos.ReplayThroughSystem(a); err != nil {
				t.Fatalf("cross-engine replay: %v", err)
			}
			// Tamper control 1: corrupting one recorded event is caught.
			bad := *a
			bad.Trace = append([]ioa.Action(nil), a.Trace...)
			bad.Trace[len(bad.Trace)/2].Payload += "-tampered"
			if err := chaos.ReplayThroughSystem(&bad); err == nil {
				t.Error("tampered trace replayed cleanly through a fresh system")
			}
			// Tamper control 2: a different net seed draws different link
			// decisions, so the recorded trace no longer matches.
			seed := *a
			net := *a.Net
			net.Seed++
			seed.Net = &net
			if _, err := chaos.Replay(&seed); err == nil {
				t.Error("replay accepted an artifact with a tampered net seed")
			}
		})
	}
}

// TestGoldenLossyTelemetryOn re-executes the lossy pinned cases with the
// full telemetry plane attached and requires the same trace hash: loss
// accounting (msgs_dropped, msgs_duplicated, msgs_reordered, the partition
// life cycle) is strictly read-only and never perturbs the schedule.
func TestGoldenLossyTelemetryOn(t *testing.T) {
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Skip("pinning pass")
	}
	for _, tc := range goldenLossyCases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			v, err := chaos.ExecuteInstrumented(tc.run, chaos.TelemetryHook(reg))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := lossyHash(v), goldenLossy[tc.name]; got != want {
				t.Errorf("telemetry perturbed the lossy schedule: hash = %s, pinned %s", got, want)
			}
			if reg.Value(telemetry.CMsgDropped) == 0 {
				t.Error("msgs_dropped = 0 on a lossy run with telemetry attached")
			}
			if reg.Value(telemetry.CMsgDuplicated) == 0 {
				t.Error("msgs_duplicated = 0 on a dup-configured run")
			}
		})
	}
}
