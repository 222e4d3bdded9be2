// Steady-state allocation pins for the two hot engines (E1's event loop and
// the valence explorer's encode path live in their packages; this file pins
// the composed Figure-1 system).  The contract under test: once ring buffers,
// ready-set words, and routing caches have grown to their working size, an
// Apply/NextReady cycle performs no heap allocation at all — under TraceOff,
// under a full TraceRing, and with a metrics-only telemetry sink attached.
// testing.AllocsPerRun is exact here (it runs on one P with GC pinned), so
// the assertions are == 0, not a budget.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// e1System builds the E1 benchmark composition: the Figure-1 P-family
// detector over n locations, n×(n-1) reliable channels, and a crash
// automaton, in TraceOff mode.
func e1System(tb testing.TB, n int, plan system.FaultPlan) *ioa.System {
	tb.Helper()
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		tb.Fatal(err)
	}
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.NewCrash(plan))
	sys := ioa.MustNewSystem(autos...)
	sys.SetTraceMode(ioa.TraceOff, 0)
	return sys
}

// driveReady applies `steps` events through the incremental ready-set — a
// NextReady scan resumed after each ApplyReady, restarting from -1 when the
// scan runs dry.  This is the same loop shape sched.RoundRobin uses, so the
// allocations it measures are the ones every E1-style driver pays.
func driveReady(tb testing.TB, sys *ioa.System, steps int) {
	fired := 0
	for fired < steps {
		idx, ok := sys.NextReady(-1)
		if !ok {
			tb.Fatalf("system quiesced after %d events", fired)
		}
		for ok && fired < steps {
			sys.ApplyReady(idx)
			fired++
			idx, ok = sys.NextReady(idx)
		}
	}
}

// TestE1ApplySteadyStateAllocs pins the tentpole: zero heap allocations per
// Apply+NextReady cycle on the E1 composition once warm.
func TestE1ApplySteadyStateAllocs(t *testing.T) {
	sys := e1System(t, 4, system.NoFaults())
	driveReady(t, sys, 20_000) // grow rings and caches to working size
	if avg := testing.AllocsPerRun(10, func() {
		driveReady(t, sys, 1_000)
	}); avg != 0 {
		t.Fatalf("steady-state Apply/NextReady allocates: %.2f allocs per 1000 events, want 0", avg)
	}
}

// TestE1TraceModesSteadyStateHeap is the bounded-memory regression test for
// the trace modes: a full TraceRing evicts in place (zero allocations per
// event, length pinned at cap) and TraceOff retains nothing.  TraceAll is
// exempt by design — it exists to keep whole traces.
func TestE1TraceModesSteadyStateHeap(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		const cap = 256
		sys := e1System(t, 4, system.NoFaults())
		sys.SetTraceMode(ioa.TraceRing, cap)
		driveReady(t, sys, 20_000) // far past cap: ring is in eviction mode
		if avg := testing.AllocsPerRun(10, func() {
			driveReady(t, sys, 1_000)
		}); avg != 0 {
			t.Fatalf("full TraceRing allocates: %.2f allocs per 1000 events, want 0", avg)
		}
		if got := len(sys.Trace()); got != cap {
			t.Fatalf("TraceRing retained %d events, want cap %d", got, cap)
		}
	})
	t.Run("off", func(t *testing.T) {
		sys := e1System(t, 4, system.NoFaults())
		driveReady(t, sys, 20_000)
		if got := len(sys.Trace()); got != 0 {
			t.Fatalf("TraceOff retained %d events, want 0", got)
		}
	})
}

// TestE1TelemetryOnAllocs pins the satellite contract of the telemetry hook:
// with a metrics-only Registry attached (tracing plane not enabled), the
// steady-state event loop — including the crash instant, whose rich
// act.String() label is gated on TracingActive — stays at zero allocations.
func TestE1TelemetryOnAllocs(t *testing.T) {
	sys := e1System(t, 4, system.CrashOf(ioa.Loc(1)))
	reg := telemetry.NewRegistry()
	sys.SetTelemetry(reg)
	driveReady(t, sys, 20_000)
	if avg := testing.AllocsPerRun(10, func() {
		driveReady(t, sys, 1_000)
	}); avg != 0 {
		t.Fatalf("metrics-only telemetry allocates: %.2f allocs per 1000 events, want 0", avg)
	}

	// The crash path specifically: re-delivering crash_1 exercises
	// telemetryApply's KindCrash branch, the one that formats a rich
	// act.String() label when — and only when — a trace exporter is
	// attached.  Crash delivery itself allocates by design (it invalidates
	// the detector's payload cache, which the next repoll rebuilds), so the
	// pin is relative: the metrics-only instant must add *zero* allocations
	// over an identical system with no telemetry at all.
	crashApplyAllocs := func(sys *ioa.System) float64 {
		crash := ioa.Crash(ioa.Loc(1))
		sys.Apply(-1, crash) // warm the first-crash state transitions
		return testing.AllocsPerRun(50, func() {
			sys.Apply(-1, crash)
		})
	}
	bare := e1System(t, 4, system.CrashOf(ioa.Loc(1)))
	driveReady(t, bare, 20_000)
	base := crashApplyAllocs(bare)
	before := reg.Value(telemetry.CCrashes)
	if got := crashApplyAllocs(sys); got != base {
		t.Fatalf("crash instant with metrics-only telemetry: %.2f allocs per event, want the bare system's %.2f", got, base)
	}
	if after := reg.Value(telemetry.CCrashes); after <= before {
		t.Fatalf("crash counter did not advance (%d -> %d): the gated path was not exercised", before, after)
	}
}

// scaleRunAt builds target at n locations with location n-1 crashed and
// runs it under the seeded random scheduler for chaos.DefaultSteps(n)
// steps.  It returns the trace, the heap allocations per event of the
// run's second half — once queues and channel rings have grown and the
// crash has been detected, as the E1 pins measure the warm loop — and the
// target's checker.
func scaleRunAt(tb testing.TB, id string, n int) (trace.T, float64, func(trace.T) error) {
	tb.Helper()
	target, err := chaos.ParseTarget(id)
	if err != nil {
		tb.Fatal(err)
	}
	plan := system.CrashOf(ioa.Loc(n - 1))
	b, err := target.Build(n, plan, nil, false)
	if err != nil {
		tb.Fatal(err)
	}
	steps := chaos.DefaultSteps(n)
	sched.Random(b.Sys, 7, sched.Options{MaxSteps: steps / 2, Stop: b.Stop})
	warm := len(b.Sys.Trace())
	allocs := mallocs(func() { sched.Random(b.Sys, 8, sched.Options{MaxSteps: steps, Stop: b.Stop}) })
	tr := b.Sys.Trace()
	return tr, float64(allocs) / float64(len(tr)-warm), target.Checker(n, plan, true)
}

// mallocs returns the heap allocations f makes, on one P so that no other
// goroutine's allocations are counted (as testing.AllocsPerRun does).
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSuspicionCostLinearInEvents pins the checker and the gossip stack as
// linear in events: allocations per event must not grow with n.  Checking
// a suspicion-set trace once re-parsed the payload for every location on
// every output, and gossip decoded all n stored payloads on every FD input,
// so both made O(n) allocations per event; each now decodes a payload once.
func TestSuspicionCostLinearInEvents(t *testing.T) {
	t.Run("checker ◇P", func(t *testing.T) {
		var at [2]float64
		for k, n := range []int{8, 32} {
			tr, _, check := scaleRunAt(t, "detector:"+afd.FamilyEvP, n)
			var err error
			at[k] = float64(mallocs(func() { err = check(tr) })) / float64(len(tr))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		if at[1] > at[0] {
			t.Fatalf("◇P checker allocs per event: %.4f at n=32 > %.4f at n=8", at[1], at[0])
		}
	})
	t.Run("gossip ◇Q>◇P apply", func(t *testing.T) {
		var at [2]float64
		for k, n := range []int{8, 32} {
			_, allocs, _ := scaleRunAt(t, "gossip:"+afd.FamilyEvQ+">"+afd.FamilyEvP, n)
			at[k] = allocs
		}
		if at[1] > at[0] {
			t.Fatalf("gossip apply allocs per event: %.4f at n=32 > %.4f at n=8", at[1], at[0])
		}
	})
}
