package chaos

import (
	"testing"
	"time"
)

// TestSweepHealthyTargets is the tier-2 bounded chaos sweep: the Ω and ◇P
// detectors and consensus-over-Ω swept across every scheduler, enumerated
// fault plans, and sampled adversarial gates must produce zero violations.
// It is the package's acceptance gate (≥100 runs) and is skipped under
// -short; the fixed seed set keeps it deterministic and inside a small time
// budget.
func TestSweepHealthyTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	start := time.Now()
	rep := Sweep(SweepConfig{N: 3, MaxT: -1, Seeds: 8, Shrink: true})
	if rep.Runs < 100 {
		t.Fatalf("sweep covered only %d runs, want ≥ 100", rep.Runs)
	}
	for _, e := range rep.Errors {
		t.Errorf("infrastructure error: %v", e)
	}
	for _, f := range rep.Failures {
		t.Errorf("violation: %s sched=%s seed=%d plan=%v: %v",
			f.Run.Target.ID(), f.Run.Sched, f.Run.Seed, f.Run.Plan, f.Err)
	}
	t.Logf("%s in %v", rep.Summary(), time.Since(start).Round(time.Millisecond))
}

// TestSweepProblemTargets sweeps the message-passing problem targets and the
// self-implementation at n=3 across every scheduler and fault plan.  Their
// gated runs can stop with every enabled action vetoed at a frozen step
// count (sched.StopGated); such a run was cut short by the harness, so it
// must be judged on its safety clauses only, not reported as a liveness
// violation.
func TestSweepProblemTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	var targets []Target
	for _, id := range []string{"urb:majority", "participant:consensus", "kset", "nbac:FD-P", "selfimpl:FD-P"} {
		target, err := ParseTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target)
	}
	rep := Sweep(SweepConfig{Targets: targets, N: 3, MaxT: -1, Seeds: 8})
	for _, e := range rep.Errors {
		t.Errorf("infrastructure error: %v", e)
	}
	for _, f := range rep.Failures {
		t.Errorf("violation: %s sched=%s seed=%d plan=%v stop=%s: %v",
			f.Run.Target.ID(), f.Run.Sched, f.Run.Seed, f.Run.Plan, f.Reason, f.Err)
	}
	t.Log(rep.Summary())
}

// TestSweepFlagsBrokenDetector checks the sweep's statistical power: the
// slanderer positive control must be flagged, and every shrunk reproducer
// must preserve the strong-accuracy clause and replay deterministically.
func TestSweepFlagsBrokenDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	rep := Sweep(SweepConfig{
		Targets: []Target{DetectorTarget{Family: "slanderer"}},
		N:       3,
		MaxT:    -1,
		Seeds:   2,
		Shrink:  true,
	})
	if len(rep.Failures) == 0 {
		t.Fatal("sweep missed the deliberately broken detector")
	}
	for _, e := range rep.Errors {
		t.Errorf("infrastructure error: %v", e)
	}
	for i, f := range rep.Failures {
		if clause := errClause(f.Err); clause != "(strong accuracy)" {
			t.Errorf("failure %d shrunk to clause %q, want strong accuracy", i, clause)
		}
	}
	// The first reproducer must replay to the identical verdict.
	if _, err := Replay(rep.Failures[0].Artifact()); err != nil {
		t.Errorf("shrunk reproducer does not replay: %v", err)
	}
}
