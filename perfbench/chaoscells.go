package main

import (
	"bytes"
	"fmt"

	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// sweepRuns is the run set chaos.Sweep builds by default — DefaultTargets ×
// Schedulers × seeds 0..7 × PlanSubsets(3, MaxT), with gates sampled per
// cell from the PRNG key Sweep uses — shuffled by the benchmark seed so that
// any prefix of the loop is a fair sample of the set.  Other seed blocks
// hold runs the checker rejects within the default step budget (README.md,
// known defects), so the benchmark seed orders the default set rather than
// choosing other chaos seeds.
func sweepRuns(seed int64) []chaos.Run {
	const n = 3
	var runs []chaos.Run
	for _, target := range chaos.DefaultTargets() {
		plans := system.PlanSubsets(n, target.MaxT(n))
		for _, sk := range chaos.Schedulers() {
			lifo := int64(0)
			if sk == chaos.SchedLIFO {
				lifo = 1
			}
			for s := int64(0); s < 8; s++ {
				for pi, plan := range plans {
					grng := sched.NewPRNG(s<<20 | int64(pi)<<1 | lifo)
					runs = append(runs, chaos.Run{
						Target: target,
						N:      n,
						Plan:   plan,
						Gates:  chaos.SampleGates(grng, n, chaos.DefaultSteps(n)),
						Sched:  sk,
						Seed:   s,
					})
				}
			}
		}
	}
	rng := sched.NewPRNG(seed)
	for i := len(runs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		runs[i], runs[j] = runs[j], runs[i]
	}
	return runs
}

// scaleTargets are the scale-n32 targets: a detector whose checker cost
// dominates its cells, and a gossip stack whose scheduler, replay and
// checker share the cost.
var scaleTargets = []string{"detector:FD-◇P", "gossip:FD-◇Q>FD-◇P"}

// scaleRun is the i-th scale-n32 run: the targets alternate, n=32, the
// random scheduler seeded from the benchmark seed, location 31 crashed.
func scaleRun(seed int64, i int) (chaos.Run, error) {
	target, err := chaos.ParseTarget(scaleTargets[i%len(scaleTargets)])
	if err != nil {
		return chaos.Run{}, err
	}
	return chaos.Run{
		Target: target,
		N:      32,
		Plan:   system.CrashOf(31),
		Gates:  chaos.NoGates(),
		Sched:  chaos.SchedRandom,
		Seed:   seed<<20 + int64(i),
	}, nil
}

// coverRuns picks, for every target × scheduler in runs, its first gated
// and its first ungated run: the cells the equivalence self-test compares
// and the set-up warms.
func coverRuns(runs []chaos.Run) []chaos.Run {
	type key struct {
		target, sched string
		gated         bool
	}
	seen := map[key]bool{}
	var out []chaos.Run
	for _, r := range runs {
		k := key{r.Target.ID(), r.Sched, !r.Gates.IsZero()}
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// pipelineCell carries one run through the cell pipeline: execute →
// Verdict.Artifact → trace.WriteArtifact → trace.ReadArtifact →
// chaos.ReplayThroughSystem → causal.Compute.  Untraced (t == nil) it
// executes through chaos.Execute; traced, through executeTraced with a span
// around every layer.  A checker rejection, a codec round trip that changes
// the trace, or a replay divergence fails the cell.
func pipelineCell(r chaos.Run, t *tracer) sample {
	cell := t.begin("cell")
	defer t.end(cell, 0)
	var v chaos.Verdict
	var err error
	if t == nil {
		v, err = chaos.Execute(r)
	} else {
		v, err = executeTraced(r, t)
	}
	if err != nil {
		return sample{err: err}
	}
	s := sample{events: len(v.Trace), rejected: v.Failed()}
	sp := t.begin("trace.write")
	data, err := encodeArtifact(v.Artifact())
	t.end(sp, len(v.Trace))
	s.bytes = len(data)
	if err != nil {
		s.err = err
		return s
	}
	a, err := certify(data, t)
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s: %w", describe(r), err)
	case !trace.Equal(a.Trace, v.Trace):
		s.err = fmt.Errorf("%s: artifact round trip changed the trace", describe(r))
	case v.Failed():
		s.err = fmt.Errorf("%s: checker rejected the run: %v", describe(r), v.Err)
	}
	return s
}

// certify is the read half of a cell: decode the artifact, replay its
// recorded trace event by event through a freshly built system, which must
// trace it byte-identically, then derive its QoS.
func certify(data []byte, t *tracer) (*trace.Artifact, error) {
	sp := t.begin("trace.read")
	a, err := trace.ReadArtifact(bytes.NewReader(data))
	if err != nil {
		t.end(sp, 0)
		return nil, err
	}
	t.end(sp, len(a.Trace))
	sp = t.begin("chaos.replay")
	err = chaos.ReplayThroughSystem(a)
	t.end(sp, len(a.Trace))
	if err != nil {
		return nil, err
	}
	sp = t.begin("causal.compute")
	causal.Compute(a.Trace, a.Stamps)
	t.end(sp, len(a.Trace))
	return a, nil
}

func encodeArtifact(a *trace.Artifact) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteArtifact(&buf, a); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func describe(r chaos.Run) string {
	return fmt.Sprintf("%s n=%d %s seed %d crash %v gates %v", r.Target.ID(), r.N, r.Sched, r.Seed, r.Plan.Crash, r.Gates.Params())
}

// checkLayer names the checker span of a target: consensus targets are
// judged by the consensus specification, every other chaos target here by
// an afd checker.
func checkLayer(target chaos.Target) string {
	if _, ok := target.(chaos.ConsensusTarget); ok {
		return "consensus.check"
	}
	return "afd.check"
}

// executeTraced is chaos.Execute decomposed into its public parts —
// Target.Build, GateSpec.Compile, the scheduler call with Built.Prio,
// Target.Checker — with a span around each.  equivalent proves it
// byte-identical to chaos.Execute on the runs it decomposes (reliable mesh,
// no instrumentation hook).
func executeTraced(r chaos.Run, t *tracer) (chaos.Verdict, error) {
	if !r.Net.IsZero() {
		return chaos.Verdict{}, fmt.Errorf("%s: executeTraced runs on the reliable mesh only", describe(r))
	}
	sp := t.begin("chaos.build")
	lifo := r.Sched == chaos.SchedLIFO
	b, err := r.Target.Build(r.N, r.Plan, nil, lifo)
	if err != nil {
		t.end(sp, 0)
		return chaos.Verdict{}, fmt.Errorf("chaos: building %s: %w", r.Target.ID(), err)
	}
	var log []trace.GateVeto
	steps := r.Steps
	if steps <= 0 {
		steps = chaos.DefaultSteps(r.N)
	}
	opts := sched.Options{MaxSteps: steps, Stop: b.Stop, Gate: r.Gates.Compile(&log, b.Tel), Telemetry: b.Tel}
	t.end(sp, 0)

	sp = t.begin("sched.apply")
	var res sched.Result
	switch r.Sched {
	case "", chaos.SchedRoundRobin:
		res = sched.RoundRobin(b.Sys, opts)
	case chaos.SchedRandom:
		res = sched.Random(b.Sys, r.Seed, opts)
	case chaos.SchedLIFO:
		prio := b.Prio
		if prio == nil {
			prio = func(ioa.TaskRef, ioa.Action) int { return 0 }
		}
		res = sched.RandomPriority(b.Sys, sched.NewPRNG(r.Seed), prio, opts)
	default:
		t.end(sp, 0)
		return chaos.Verdict{}, fmt.Errorf("chaos: unknown scheduler %q", r.Sched)
	}
	tr := b.Sys.Trace()
	t.end(sp, len(tr))

	sp = t.begin(checkLayer(r.Target))
	fair := chaos.Fair(r.Sched) && r.Gates.EventuallyFair()
	verdictErr := r.Target.Checker(r.N, r.Plan, fair)(tr)
	t.end(sp, len(tr))
	return chaos.Verdict{Run: r, Steps: res.Steps, Reason: res.Reason, Err: verdictErr, Trace: tr, GateLog: log}, nil
}

// decomposed is executeTraced without spans.
func decomposed(r chaos.Run) (chaos.Verdict, error) { return executeTraced(r, nil) }

// equivalent checks that exec gives what chaos.Execute gives on every run:
// the same stop reason and step count, and byte-identical artifacts (trace,
// verdict, gate log).  The traced run refuses to report per-layer numbers
// unless decomposed passes, since they would describe another program.
func equivalent(runs []chaos.Run, exec func(chaos.Run) (chaos.Verdict, error)) error {
	for _, r := range runs {
		want, err := chaos.Execute(r)
		if err != nil {
			return err
		}
		got, err := exec(r)
		if err != nil {
			return err
		}
		if got.Reason != want.Reason || got.Steps != want.Steps {
			return fmt.Errorf("%s: decomposed run stopped %s after %d steps, chaos.Execute %s after %d",
				describe(r), got.Reason, got.Steps, want.Reason, want.Steps)
		}
		wb, err := encodeArtifact(want.Artifact())
		if err != nil {
			return err
		}
		gb, err := encodeArtifact(got.Artifact())
		if err != nil {
			return err
		}
		if !bytes.Equal(wb, gb) {
			return fmt.Errorf("%s: decomposed run's artifact differs from chaos.Execute's", describe(r))
		}
	}
	return nil
}

// sweepSetup builds the sweep-n3 run set and warms every target ×
// scheduler through the whole pipeline.
func sweepSetup(seed int64) ([]chaos.Run, error) {
	runs := sweepRuns(seed)
	return runs, warm(coverRuns(runs))
}

// scaleCell is the i-th scale-n32 cell: one run of each target in turn, so
// every cell carries the same mix.
func scaleCell(seed int64, i int, t *tracer) sample {
	var s sample
	for k := range scaleTargets {
		r, err := scaleRun(seed, i*len(scaleTargets)+k)
		if err != nil {
			return sample{err: err}
		}
		s.add(pipelineCell(r, t))
	}
	return s
}

// scaleSetup warms both scale-n32 targets through the whole pipeline.
func scaleSetup(seed int64) ([]chaos.Run, error) {
	var cover []chaos.Run
	for i := range scaleTargets {
		r, err := scaleRun(seed, i)
		if err != nil {
			return nil, err
		}
		cover = append(cover, r)
	}
	return cover, warm(cover)
}

func warm(runs []chaos.Run) error {
	for _, r := range runs {
		if s := pipelineCell(r, nil); s.err != nil {
			return fmt.Errorf("set-up: %w", s.err)
		}
	}
	return nil
}

func runSweep(cfg config) (*outcome, error) {
	runs, setupS, err := timedSetup(3, func() ([]chaos.Run, error) { return sweepSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	samples, wall := closedLoop(cfg.seconds, func(i int) sample {
		return pipelineCell(runs[i%len(runs)], nil)
	})
	return tally(samples, wall, setupS), nil
}

func runScale(cfg config) (*outcome, error) {
	_, setupS, err := timedSetup(3, func() ([]chaos.Run, error) { return scaleSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	samples, wall := closedLoop(cfg.seconds, func(i int) sample {
		return scaleCell(cfg.seed, i, nil)
	})
	return tally(samples, wall, setupS), nil
}

func tracedSweep(cfg config) (*outcome, error) {
	runs, err := sweepSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	return tracedChaos(cfg, "sweep-n3", coverRuns(runs), 1, 60, func(i int, t *tracer) sample {
		return pipelineCell(runs[i%len(runs)], t)
	})
}

func tracedScale(cfg config) (*outcome, error) {
	cover, err := scaleSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	return tracedChaos(cfg, "scale-n32", cover, len(scaleTargets), 1, func(i int, t *tracer) sample {
		return scaleCell(cfg.seed, i, t)
	})
}

// tracedChaos is the traced run of a chaos workload whose cells hold
// runsPerCell runs.  It first proves the decomposition equivalent on cover,
// then measures the traced run's phases and a single-goroutine allocation
// pass over the first allocCells cells.
func tracedChaos(cfg config, name string, cover []chaos.Run, runsPerCell, allocCells int, cell func(i int, t *tracer) sample) (*outcome, error) {
	if err := equivalent(cover, decomposed); err != nil {
		return nil, fmt.Errorf("equivalence self-test failed, refusing per-layer numbers: %w", err)
	}
	fmt.Printf("equivalence self-test: %d runs byte-identical to chaos.Execute\n", len(cover))
	tr := runTraced(cfg, cell)
	at := newAllocTracer()
	var allocSamples []sample
	for i := 0; i < allocCells; i++ {
		at.cell = int64(i)
		allocSamples = append(allocSamples, cell(i, at))
	}

	ls, als := tr.layers(), layers(at)
	m := map[string]float64{
		"chaos.build.us_per_cell":      ls["chaos.build"].usPerCall(),
		"sched.apply.ns_per_event":     ls["sched.apply"].nsPerEvent(),
		"sched.apply.allocs_per_event": als["sched.apply"].allocsPerEvent(),
		"afd.check.ns_per_event":       ls["afd.check"].nsPerEvent(),
		"afd.check.allocs_per_event":   als["afd.check"].allocsPerEvent(),
		"consensus.check.ns_per_event": ls["consensus.check"].nsPerEvent(),
		"trace.write.ns_per_event":     ls["trace.write"].nsPerEvent(),
		"trace.read.ns_per_event":      ls["trace.read"].nsPerEvent(),
		"trace.read.allocs_per_event":  als["trace.read"].allocsPerEvent(),
		"chaos.replay.ns_per_event":    ls["chaos.replay"].nsPerEvent(),
		"causal.compute.ns_per_event":  ls["causal.compute"].nsPerEvent(),
	}
	written, rejections := 0, 0
	for _, s := range tr.plain {
		written += s.bytes
		if s.rejected {
			rejections++
		}
	}
	if evs := events(tr.plain); evs > 0 {
		m["trace.write.bytes_per_event"] = float64(written) / float64(evs)
		m["chaos.events_per_cell"] = float64(evs) / float64(len(tr.plain)*runsPerCell)
	}
	m["chaos.spec_rejections"] = float64(rejections)
	return tr.finish(cfg, name, m, allocSamples...)
}
