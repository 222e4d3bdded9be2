package main

import (
	"bytes"
	"fmt"

	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// explainTargets are the explain-n32 record targets: consensus and gossip
// carry ◇P suspicions to explain; URB has none and stresses the message
// edges of the DAG.
var explainTargets = []string{"consensus:FD-◇P", "urb:majority", "gossip:FD-◇Q>FD-◇P"}

// record is one artifact recorded during explain-n32's set-up.
type record struct {
	data []byte
	// rejected: the target's checker rejected the recorded run.  urb:majority
	// at n=32 fails validity within chaos.DefaultSteps (README.md, known
	// defects); explaining a rejected run is still a correct cell.
	rejected bool
}

// explainSetup records one artifact per explain target at n=32 under the
// random scheduler seeded by the benchmark seed, location 31 crashed, at
// chaos.DefaultSteps.
func explainSetup(seed int64) ([]record, error) {
	var recs []record
	for _, id := range explainTargets {
		target, err := chaos.ParseTarget(id)
		if err != nil {
			return nil, err
		}
		v, err := chaos.Execute(chaos.Run{
			Target: target,
			N:      32,
			Plan:   system.CrashOf(31),
			Gates:  chaos.NoGates(),
			Sched:  chaos.SchedRandom,
			Seed:   seed,
		})
		if err != nil {
			return nil, err
		}
		data, err := encodeArtifact(v.Artifact())
		if err != nil {
			return nil, err
		}
		recs = append(recs, record{data: data, rejected: v.Failed()})
	}
	return recs, nil
}

// explainCell is cmd/explain's path over one recorded artifact:
// trace.ReadArtifact → causal.Build (replay under a stride-1 oracle) →
// DAG.Transitions/DAG.Explain of every observer's latest suspicion of each
// crashed location → causal.Compute.  A DAG whose verification found diffs,
// or a suspicion it cannot explain, fails the cell.  It reports the verified
// message edges and the chains explained.
func explainCell(data []byte, t *tracer) (s sample, verified, chains int) {
	cell := t.begin("cell")
	defer t.end(cell, 0)
	sp := t.begin("trace.read")
	a, err := trace.ReadArtifact(bytes.NewReader(data))
	if err != nil {
		t.end(sp, 0)
		return sample{err: err}, 0, 0
	}
	t.end(sp, len(a.Trace))
	s = sample{events: len(a.Trace), rejected: a.Verdict != ""}

	sp = t.begin("causal.build")
	d, err := causal.Build(a)
	t.end(sp, len(a.Trace))
	if err != nil {
		s.err = fmt.Errorf("%s: %w", a.Target, err)
		return s, 0, 0
	}
	if !d.Verification.Ok() {
		s.err = fmt.Errorf("%s: verification: %d/%d message edges confirmed, diffs %v",
			a.Target, d.Verification.VerifiedEdges, d.Verification.MessageEdges, d.Verification.Diffs)
		return s, d.Verification.VerifiedEdges, 0
	}

	sp = t.begin("causal.explain")
	for _, crashed := range a.Crash {
		for _, tr := range latestSuspicions(d.Transitions(), crashed) {
			if _, err := d.Explain(tr, crashed); err != nil {
				s.err = fmt.Errorf("%s: %w", a.Target, err)
			}
			chains++
		}
	}
	t.end(sp, len(a.Trace))

	sp = t.begin("causal.compute")
	causal.Compute(d.Events, d.Stamps)
	t.end(sp, len(a.Trace))
	return s, d.Verification.VerifiedEdges, chains
}

// latestSuspicions picks, per observer, its latest transition adding
// subject: the suspicion cmd/explain -why observer:subject explains.
func latestSuspicions(trs []causal.Transition, subject ioa.Loc) []causal.Transition {
	latest := map[ioa.Loc]int{}
	var order []ioa.Loc
	for i, tr := range trs {
		for _, l := range tr.Added {
			if l != subject {
				continue
			}
			if _, ok := latest[tr.Observer]; !ok {
				order = append(order, tr.Observer)
			}
			latest[tr.Observer] = i
		}
	}
	out := make([]causal.Transition, 0, len(order))
	for _, obs := range order {
		out = append(out, trs[latest[obs]])
	}
	return out
}

// explainPass is one explain-n32 cell: every recorded artifact explained
// in turn, so each cell carries the same mix of targets.  It returns the
// verified message edges and the chains explained over the pass.
func explainPass(recs []record, t *tracer) (s sample, verified, chains int) {
	for _, rec := range recs {
		rs, v, c := explainCell(rec.data, t)
		s.add(rs)
		verified += v
		chains += c
	}
	return s, verified, chains
}

func runExplain(cfg config) (*outcome, error) {
	recs, setupS, err := timedSetup(3, func() ([]record, error) { return explainSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	samples, wall := closedLoop(cfg.seconds, func(int) sample {
		s, _, _ := explainPass(recs, nil)
		return s
	})
	return tally(samples, wall, setupS), nil
}

// tracedExplain is explain-n32's traced run: the traced run's phases and
// an allocation pass.
func tracedExplain(cfg config) (*outcome, error) {
	recs, err := explainSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	traced := 0
	tr := runTraced(cfg, func(_ int, t *tracer) sample {
		s, _, c := explainPass(recs, t)
		if t != nil {
			traced += c
		}
		return s
	})
	at := newAllocTracer()
	last, verified, chains := explainPass(recs, at)
	rejections := 0
	for _, rec := range recs {
		if rec.rejected {
			rejections++
		}
	}

	ls, als := tr.layers(), layers(at)
	m := map[string]float64{
		"trace.read.ns_per_event":       ls["trace.read"].nsPerEvent(),
		"trace.read.allocs_per_event":   als["trace.read"].allocsPerEvent(),
		"causal.build.ns_per_event":     ls["causal.build"].nsPerEvent(),
		"causal.build.allocs_per_event": als["causal.build"].allocsPerEvent(),
		"causal.build.verified_edges":   float64(verified),
		"causal.compute.ns_per_event":   ls["causal.compute"].nsPerEvent(),
		"chaos.events_per_cell":         float64(last.events) / float64(len(recs)),
		"chaos.spec_rejections":         float64(rejections),
	}
	if l := ls["causal.explain"]; l != nil && traced > 0 {
		m["causal.explain.us_per_chain"] = float64(l.selfNs) / 1e3 / float64(traced)
	}
	fmt.Printf("%d artifacts: %d verified message edges, %d suspicion chains, %d spec rejections\n",
		len(recs), verified, chains, rejections)
	return tr.finish(cfg, "explain-n32", m, last)
}
