package main

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/valence"
)

// exploreConfig is the E11 acceptance configuration "perfect s n=3 crash"
// at two workers (the parallel engine, on the benchmark's one P), full or
// reduced.  Its input is fixed: the explorer's
// pinned counts hold for this configuration only, so the benchmark seed
// does not vary it.
func exploreConfig(reduce bool) valence.Config {
	return valence.Config{
		N: 3, Family: afd.FamilyP, Algo: "s",
		TD:       valence.PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
		Values:   []int{-1, 1, 1},
		MaxNodes: 1_500_000,
		Workers:  2,
		Reduce:   reduce,
	}
}

// pins are the counts an exploration round must reproduce.
type pins struct {
	fullNodes, fullEdges int
	redNodes, redEdges   int
	hooks                int // per graph, every one verified
}

// explorePins are the E11 golden counts (valence.TestGoldenStats, E18).
var explorePins = pins{
	fullNodes: 230_890, fullEdges: 828_706,
	redNodes: 70_808, redEdges: 156_438,
	hooks: 992,
}

// exploreRound is one explore-n3 cell: valence.New + Explore on the full
// graph, FindHooks + VerifyHook on it, then the same on the reduced graph.
// Any count that differs from want, or a hook that fails verification,
// fails the cell.  With heap non-nil it also records each graph's live heap
// per node, measured after a collection with the explorer still reachable.
func exploreRound(want pins, t *tracer, heap map[string]float64) (s sample, got pins) {
	cell := t.begin("cell")
	defer t.end(cell, 0)
	check := func(what string, g, w int) {
		if g != w && s.err == nil {
			s.err = fmt.Errorf("explore-n3: %s = %d, pinned %d", what, g, w)
		}
	}
	for _, reduce := range []bool{false, true} {
		name := "valence.explore_full"
		if reduce {
			name = "valence.explore_reduced"
		}
		// Every exploration starts from a collected heap, as it does in a
		// fresh cmd/hookfind process, so the garbage of the previous one
		// does not pace its collections.
		base := heapInUse()
		sp := t.begin(name)
		e, err := valence.New(exploreConfig(reduce))
		if err == nil {
			err = e.Explore()
		}
		if err != nil {
			t.end(sp, 0)
			s.err = fmt.Errorf("explore-n3 %s: %w", name, err)
			return s, got
		}
		t.end(sp, e.NumNodes())
		if heap != nil {
			heap[name+".heap_bytes_per_node"] = float64(heapInUse()-base) / float64(e.NumNodes())
		}
		s.events += e.NumEdges()

		sp = t.begin("valence.hooks")
		hooks := e.FindHooks(0)
		bad := 0
		for _, h := range hooks {
			if e.VerifyHook(h) != nil {
				bad++
			}
		}
		t.end(sp, 0)
		check(name+" hooks", len(hooks), want.hooks)
		check(name+" unverified hooks", bad, 0)
		if reduce {
			got.redNodes, got.redEdges = e.NumNodes(), e.NumEdges()
		} else {
			got.fullNodes, got.fullEdges, got.hooks = e.NumNodes(), e.NumEdges(), len(hooks)
		}
	}
	check("full nodes", got.fullNodes, want.fullNodes)
	check("full edges", got.fullEdges, want.fullEdges)
	check("reduced nodes", got.redNodes, want.redNodes)
	check("reduced edges", got.redEdges, want.redEdges)
	return s, got
}

// exploreSetup warms the explorer with one reduced exploration of the
// E11 configuration, which also builds the full configuration's root.
func exploreSetup() (struct{}, error) {
	if _, err := valence.New(exploreConfig(false)); err != nil {
		return struct{}{}, err
	}
	e, err := valence.New(exploreConfig(true))
	if err == nil {
		err = e.Explore()
	}
	return struct{}{}, err
}

func runExplore(cfg config) (*outcome, error) {
	_, setupS, err := timedSetup(3, exploreSetup)
	if err != nil {
		return nil, err
	}
	samples, wall := closedLoop(cfg.seconds, func(int) sample {
		s, _ := exploreRound(explorePins, nil, nil)
		return s
	})
	return tally(samples, wall, setupS), nil
}

// tracedExplore is explore-n3's traced run: the traced run's phases and
// one round that counts allocations and live heap per node.
func tracedExplore(cfg config) (*outcome, error) {
	if _, err := exploreSetup(); err != nil {
		return nil, err
	}
	tr := runTraced(cfg, func(_ int, t *tracer) sample {
		s, _ := exploreRound(explorePins, t, nil)
		return s
	})
	at := newAllocTracer()
	heap := map[string]float64{}
	last, got := exploreRound(explorePins, at, heap)

	ls, als := tr.layers(), layers(at)
	m := map[string]float64{}
	for _, phase := range []struct {
		name         string
		nodes, edges int
	}{
		{"valence.explore_full", got.fullNodes, got.fullEdges},
		{"valence.explore_reduced", got.redNodes, got.redEdges},
	} {
		l := ls[phase.name]
		if l == nil || l.count == 0 {
			continue
		}
		m[phase.name+".s"] = float64(l.selfNs) / float64(l.count) / 1e9
		m[phase.name+".nodes"] = float64(phase.nodes)
		m[phase.name+".edges"] = float64(phase.edges)
		m[phase.name+".nodes_per_s"] = float64(l.events) / (float64(l.selfNs) / 1e9)
		m[phase.name+".heap_bytes_per_node"] = heap[phase.name+".heap_bytes_per_node"]
		m[phase.name+".allocs_per_node"] = als[phase.name].allocsPerEvent()
	}
	if got.redNodes > 0 {
		m["valence.reduce.ratio"] = float64(got.fullNodes) / float64(got.redNodes)
	}
	m["valence.hooks.ms"] = ls["valence.hooks"].usPerCall() / 1e3
	fmt.Printf("full %d nodes / %d edges, reduced %d / %d, %d hooks per graph; heap %.0f / %.0f B/node\n",
		got.fullNodes, got.fullEdges, got.redNodes, got.redEdges, got.hooks,
		heap["valence.explore_full.heap_bytes_per_node"], heap["valence.explore_reduced.heap_bytes_per_node"])
	return tr.finish(cfg, "explore-n3", m, last)
}
