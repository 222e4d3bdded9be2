package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Output families of the perfect and eventually perfect detectors.
const (
	FamilyP   = "FD-P"
	FamilyEvP = "FD-◇P"
)

// Perfect is the perfect failure detector P of Section 3.3 (Algorithm 2):
// suspicion-set outputs satisfying
//
//	(1) strong accuracy, perpetual: for every prefix tpre, no event in tpre
//	    suspects a location live in tpre (no location is suspected before
//	    its crash event);
//	(2) strong completeness: there is a suffix in which every output
//	    suspects every faulty location.
type Perfect struct{}

var _ Detector = Perfect{}

// Family implements Detector.
func (Perfect) Family() string { return FamilyP }

// Automaton implements Detector (Algorithm 2): output exactly crashset.
func (Perfect) Automaton(n int) ioa.Automaton {
	return NewGenerator(FamilyP, n, func(st *GenState, _ ioa.Loc) string {
		return ioa.EncodeLocSet(st.CrashSet())
	}).StablePayload(0)
}

// Check implements Detector.
func (Perfect) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyP, w); err != nil {
		return err
	}
	return checkSuspicions(t, n, FamilyP, w, accuracyPerpetual|completenessStrong)
}

// EvPerfect is the eventually perfect failure detector ◇P of Section 3.3:
//
//	(1) eventual strong accuracy: a suffix exists in which no output
//	    suspects any live location;
//	(2) strong completeness as for P.
//
// The canonical automaton outputs a deliberately wrong suspicion set —
// everything except the location itself — for the first Perverse outputs at
// each location, then exactly crashset; its fair traces are in T◇P but (for
// Perverse > 0) not in TP, witnessing that ◇P is strictly weaker.
type EvPerfect struct {
	// Perverse is the number of initial inaccurate outputs per location.
	Perverse int
}

var _ Detector = EvPerfect{}

// Family implements Detector.
func (EvPerfect) Family() string { return FamilyEvP }

// Automaton implements Detector.
func (d EvPerfect) Automaton(n int) ioa.Automaton {
	k := d.Perverse
	return NewGenerator(FamilyEvP, n, func(st *GenState, i ioa.Loc) string {
		if st.Emitted[i] < k {
			wrong := make(map[ioa.Loc]bool)
			for j := 0; j < st.N; j++ {
				if ioa.Loc(j) != i {
					wrong[ioa.Loc(j)] = true
				}
			}
			return ioa.EncodeLocSet(wrong)
		}
		return ioa.EncodeLocSet(st.CrashSet())
	}).StablePayload(k)
}

// Check implements Detector.
func (EvPerfect) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyEvP, w); err != nil {
		return err
	}
	return checkSuspicions(t, n, FamilyEvP, w, accuracyEventualStrong|completenessStrong)
}

// Suspicion-property flags shared by the Chandra-Toueg-style checkers.
type suspicionProps uint8

const (
	// accuracyPerpetual: no location suspected before its crash.
	accuracyPerpetual suspicionProps = 1 << iota
	// accuracyEventualStrong: eventually no live location suspected.
	accuracyEventualStrong
	// accuracyWeak: some live location is never suspected.
	accuracyWeak
	// accuracyEventualWeak: eventually some live location is not suspected.
	accuracyEventualWeak
	// completenessStrong: eventually every output suspects every faulty.
	completenessStrong
	// completenessWeak: eventually, for every faulty f, some live location's
	// outputs permanently suspect f.
	completenessWeak
)

// checkSuspicions verifies the selected accuracy/completeness combination on
// a suspicion-set trace of the given family.  t must already be validity-
// checked.  When there are no live locations every clause below is vacuous
// (nothing is output after the final crash), so the trace is admissible.
//
// Each payload is decoded once (suspicionReader) and every clause is a set
// operation on the decoded sets, so the check is linear in the events: the
// "eventually" clauses read only the shortest non-vacuous suffix
// (stableSuffix), and the per-location ones fold it in one pass.
func checkSuspicions(t trace.T, n int, family string, w Window, props suspicionProps) error {
	isOut := IsOutput(family)
	live, faulty := crashSets(t, n)
	if live.Len() == 0 {
		return nil
	}
	r := newSuspicionReader(n)

	if props&accuracyPerpetual != 0 {
		var crashed ioa.LocSet
		for _, a := range t {
			if a.Kind == ioa.KindCrash {
				crashed.Add(a.Loc)
				continue
			}
			if !isOut(a) {
				continue
			}
			if early := r.set(a).Minus(crashed); early.Len() > 0 {
				return fmt.Errorf("afd: %s suspects %d before crash (strong accuracy)", a, int(early.AppendLocs(nil)[0]))
			}
		}
	}

	if props&accuracyWeak != 0 {
		var ever ioa.LocSet
		for _, a := range t {
			if isOut(a) {
				ever = ever.Union(r.set(a))
			}
		}
		if live.Minus(ever).Len() == 0 {
			return fmt.Errorf("afd: %s: every live location suspected at some point (weak accuracy)", family)
		}
	}

	if w.Prefix {
		// The remaining clauses are all "eventually (permanently) X":
		// unrefutable on a finite prefix.
		return nil
	}

	if props&accuracyEventualStrong != 0 {
		if !stableFrom(t, n, family, w.minStable(), func(i int) bool {
			return r.set(t[i]).Intersect(live).Len() == 0
		}) {
			return fmt.Errorf("afd: %s never stops suspecting live locations (eventual strong accuracy)", family)
		}
	}

	if props&accuracyEventualWeak != 0 {
		// Some live l is eventually unsuspected iff no output in the
		// shortest non-vacuous suffix suspects it.
		s, ok := stableSuffix(t, n, isOut, w.minStable())
		if ok {
			var late ioa.LocSet
			for _, a := range t[s:] {
				if isOut(a) {
					late = late.Union(r.set(a))
				}
			}
			ok = live.Minus(late).Len() > 0
		}
		if !ok {
			return fmt.Errorf("afd: %s: no live location eventually unsuspected (eventual weak accuracy)", family)
		}
	}

	if props&completenessStrong != 0 {
		if !stableFrom(t, n, family, w.minStable(), func(i int) bool {
			return faulty.Minus(r.set(t[i])).Len() == 0
		}) {
			return fmt.Errorf("afd: %s: faulty locations not eventually permanently suspected (strong completeness)", family)
		}
	}

	if props&completenessWeak != 0 {
		// Live l's outputs permanently suspect f, with at least minStable
		// outputs at l in that suffix, iff l's last minStable outputs all
		// suspect f.  covered collects those f over every live l.
		minPer := w.minStable()
		seen := make([]int, n)
		last := make([]ioa.LocSet, n) // ∩ of l's last seen[l] output sets
		var covered ioa.LocSet
		for i := len(t) - 1; i >= 0; i-- {
			a := t[i]
			if !isOut(a) || !live.Has(a.Loc) || seen[a.Loc] == minPer {
				continue
			}
			if set := r.set(a); seen[a.Loc] == 0 {
				last[a.Loc] = set
			} else {
				last[a.Loc] = last[a.Loc].Intersect(set)
			}
			if seen[a.Loc]++; seen[a.Loc] == minPer {
				covered = covered.Union(last[a.Loc])
			}
		}
		if missed := faulty.Minus(covered); missed.Len() > 0 {
			return fmt.Errorf("afd: %s: faulty %v not permanently suspected by any live location (weak completeness)", family, missed.AppendLocs(nil)[0])
		}
	}

	return nil
}
