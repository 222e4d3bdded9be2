package main

import (
	"fmt"
	"time"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/system"
)

// liveTarget is the live-n8 stack: gossip boosting ◇Q to ◇P, whose ◇P
// outputs give the detection latency.
const liveTarget = "gossip:FD-◇Q>FD-◇P"

// liveCell is one live-n8 cell: live.RunTarget on the in-process channel
// transport, n=8, location 7 crashed, chaos.DefaultSteps(8) steps, then
// causal.Compute over the stamped trace.  A checker rejection or a replay
// divergence fails the cell.  It returns the wall-clock milliseconds from
// the crash to each observer's permanent ◇P suspicion.
func liveCell(target chaos.Target, seed int64, t *tracer) (sample, []float64) {
	cell := t.begin("cell")
	defer t.end(cell, 0)
	sp := t.begin("live.run_target")
	rep, err := live.RunTarget(live.RunSpec{
		Target: target,
		N:      8,
		Plan:   system.CrashOf(ioa.Loc(7)),
		Opts:   live.Options{Seed: seed, Duration: 10 * time.Second},
	})
	if err != nil {
		t.end(sp, 0)
		return sample{err: err}, nil
	}
	res := rep.Result
	t.end(sp, len(res.Trace))
	s := sample{events: len(res.Trace), rejected: rep.VerdictErr != nil}
	switch {
	case rep.VerdictErr != nil:
		s.err = fmt.Errorf("live seed %d: checker rejected the run: %w", seed, rep.VerdictErr)
	case rep.ReplayErr != nil:
		s.err = fmt.Errorf("live seed %d: replay diverged: %w", seed, rep.ReplayErr)
	}

	sp = t.begin("causal.compute")
	stats := causal.Compute(res.Trace, res.Stamps)
	t.end(sp, len(res.Trace))
	var detect []float64
	for _, st := range stats {
		if st.Family != afd.FamilyEvP {
			continue
		}
		for _, d := range st.Detections {
			detect = append(detect, float64(d.Ns)/1e6)
		}
	}
	return s, detect
}

// liveSeed is the transport seed of the benchmark seed's i-th live run.
func liveSeed(seed int64, i int) int64 { return seed<<16 + int64(i) }

// liveSetup parses the target and warms the runtime with one run.
func liveSetup(seed int64) (chaos.Target, error) {
	target, err := chaos.ParseTarget(liveTarget)
	if err != nil {
		return nil, err
	}
	if s, _ := liveCell(target, liveSeed(seed, -1), nil); s.err != nil {
		return nil, fmt.Errorf("set-up: %w", s.err)
	}
	return target, nil
}

func runLive(cfg config) (*outcome, error) {
	target, setupS, err := timedSetup(3, func() (chaos.Target, error) { return liveSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	samples, wall := closedLoop(cfg.seconds, func(i int) sample {
		s, _ := liveCell(target, liveSeed(cfg.seed, i), nil)
		return s
	})
	return tally(samples, wall, setupS), nil
}

// tracedLive is live-n8's traced run.  Its untraced cells also give the
// detection latencies.
func tracedLive(cfg config) (*outcome, error) {
	target, err := liveSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	var detect []float64
	tr := runTraced(cfg, func(i int, t *tracer) sample {
		s, d := liveCell(target, liveSeed(cfg.seed, i), t)
		if t == nil {
			detect = append(detect, d...)
		}
		return s
	})

	ls := tr.layers()
	runs := float64(max(len(tr.plain), 1))
	m := map[string]float64{
		"live.run_target.ms":          ls["live.run_target"].usPerCall() / 1e3,
		"live.events_per_run":         float64(events(tr.plain)) / runs,
		"live.detect.ms_p50":          percentile(detect, 50),
		"live.detect.ms_p90":          percentile(detect, 90),
		"causal.compute.ns_per_event": ls["causal.compute"].nsPerEvent(),
	}
	untraced := 0
	for _, s := range tr.mixed {
		if !s.traced {
			untraced++
		}
	}
	m["live.detections"] = float64(len(detect)) / float64(len(tr.plain)+untraced)
	fmt.Printf("%d untraced live runs: %d detections, p50 %.3fms p90 %.3fms\n",
		len(tr.plain)+untraced, len(detect), m["live.detect.ms_p50"], m["live.detect.ms_p90"])
	return tr.finish(cfg, "live-n8", m)
}
