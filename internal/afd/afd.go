// Package afd implements the asynchronous failure detector (AFD) formalism
// of Section 3 of "Asynchronous Failure Detectors" (Cornejo, Lynch, Sastry):
// the defining properties (validity, closure under sampling, closure under
// constrained reordering), executable membership checkers for the detectors
// the paper names, and canonical implementation automata for each of them
// (Algorithms 1 and 2 and their straightforward generalizations).
//
// An AFD D ≡ (Iˆ, OD, TD) is a crash problem whose only inputs are the crash
// events and whose admissible output sequences TD satisfy the three AFD
// properties.  In this package a Detector bundles:
//
//   - the action family of OD (a distinct ioa.Action name per detector, so
//     that renamings and distinct detectors never collide under composition);
//   - a canonical automaton whose fair traces lie in TD (the paper's device
//     for establishing that a specification is non-trivial, Section 3.1);
//   - a checker deciding whether a finite trace over Iˆ ∪ OD is a prefix of
//     some member of TD, under the documented finite-prefix semantics.
//
// # Finite-prefix semantics
//
// Simulations produce finite prefixes of fair executions.  A property of the
// form "eventually permanently X" is checked as: there is a suffix of the
// prefix on which X holds, and that suffix is non-vacuous — it contains at
// least Window.MinStableOutputs output events at every live location.  The
// validity clause "infinitely many outputs at each live location" is checked
// as at least Window.MinOutputsPerLive outputs at each live location.  Both
// bounds default to 1; experiments use larger windows for confidence.
package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Window parameterizes the finite-prefix reading of liveness clauses.
type Window struct {
	// MinOutputsPerLive is the finite stand-in for "infinitely many
	// outputs occur at each live location" (validity, Section 3.2).
	MinOutputsPerLive int
	// MinStableOutputs is the per-live-location number of output events a
	// stable suffix must contain to witness an "eventually permanently"
	// clause non-vacuously.
	MinStableOutputs int
	// Prefix selects prefix-admissibility: the trace is judged as a finite
	// prefix of a member of TD, so only clauses refutable on a prefix are
	// enforced (perpetual accuracy, quorum intersection, validity's
	// no-output-after-crash) and "eventually"-clauses are skipped — a
	// finite prefix can never refute them.
	//
	// Prefix mode is what closure under constrained reordering needs: a
	// reordering may move pre-crash outputs past the end of the observed
	// window (they are "delayed", Section 3.2), leaving a sequence that is
	// a prefix of an admissible trace without containing its stabilized
	// suffix.
	Prefix bool
}

// DefaultWindow is the minimal non-vacuous window.
func DefaultWindow() Window { return Window{MinOutputsPerLive: 1, MinStableOutputs: 1} }

// PrefixWindow is the prefix-admissibility window (safety clauses only).
func PrefixWindow() Window { return Window{Prefix: true} }

func (w Window) minOutputs() int {
	if w.MinOutputsPerLive <= 0 {
		return 1
	}
	return w.MinOutputsPerLive
}

func (w Window) minStable() int {
	if w.MinStableOutputs <= 0 {
		return 1
	}
	return w.MinStableOutputs
}

// Detector is an asynchronous failure detector specification with a
// canonical implementation automaton.
type Detector interface {
	// Family is the ioa.Action name of the detector's output events.
	Family() string
	// Automaton returns a fresh canonical implementation for n locations:
	// an automaton whose inputs are exactly the crash actions and whose
	// fair traces are a subset of TD (cf. Algorithms 1 and 2).
	Automaton(n int) ioa.Automaton
	// Check decides whether t — a finite trace over Iˆ ∪ OD, i.e. crash
	// events and this family's output events only — is admissible as a
	// prefix of a member of TD under the finite-prefix semantics of w.
	Check(t trace.T, n int, w Window) error
}

// IsOutput returns the classifier for a detector family's output events,
// used with the trace-calculus sampling helpers.
func IsOutput(family string) func(ioa.Action) bool {
	return func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == family }
}

// CheckCrashExclusive verifies that t ranges over Iˆ ∪ OD for the given
// family: only crash events and output events of that family occur.  This is
// the crash-exclusivity side condition of Section 3.2 on the sequences a
// detector checker consumes.
func CheckCrashExclusive(t trace.T, family string) error {
	for _, a := range t {
		if a.Kind == ioa.KindCrash {
			continue
		}
		if a.Kind == ioa.KindFD && a.Name == family {
			continue
		}
		return fmt.Errorf("afd: event %v is neither a crash nor an output of %s", a, family)
	}
	return nil
}

// CheckValidity verifies the validity property of Section 3.2 on a finite
// trace: (1) no output occurs at a location after that location's first
// crash event; (2) every live location has at least w.MinOutputsPerLive
// outputs (the finite reading of "infinitely many").
func CheckValidity(t trace.T, n int, family string, w Window) error {
	if err := CheckCrashExclusive(t, family); err != nil {
		return err
	}
	isOut := IsOutput(family)
	crashed := make([]bool, n)
	counts := make([]int, n)
	for _, a := range t {
		if a.Loc < 0 || int(a.Loc) >= n {
			return fmt.Errorf("afd: event %v at out-of-range location (n=%d)", a, n)
		}
		switch {
		case a.Kind == ioa.KindCrash:
			crashed[a.Loc] = true
		case isOut(a):
			if crashed[a.Loc] {
				return fmt.Errorf("afd: output %v after crash_%v (validity 1)", a, a.Loc)
			}
			counts[a.Loc]++
		}
	}
	if w.Prefix {
		return nil // validity clause 2 is a liveness clause
	}
	for i := 0; i < n; i++ {
		if !crashed[i] && counts[i] < w.minOutputs() {
			return fmt.Errorf("afd: live location %d has %d outputs, need ≥ %d (validity 2)",
				i, counts[i], w.minOutputs())
		}
	}
	return nil
}

// stableSuffix returns the start of the shortest non-vacuous suffix of t:
// the greatest s such that t[s:] holds at least minPer outputs (isOut) at
// every live location.  ok is false when t itself holds fewer at some live
// location.  It scans back from the end only as far as s.
func stableSuffix(t trace.T, n int, isOut func(ioa.Action) bool, minPer int) (s int, ok bool) {
	need := make([]int, n)
	for i := range need {
		need[i] = minPer
	}
	for _, a := range t {
		if a.Kind == ioa.KindCrash {
			need[a.Loc] = 0
		}
	}
	short := 0
	for _, c := range need {
		if c > 0 {
			short++
		}
	}
	for s = len(t); short > 0 && s > 0; {
		s--
		if a := t[s]; isOut(a) && need[a.Loc] > 0 {
			if need[a.Loc]--; need[a.Loc] == 0 {
				short--
			}
		}
	}
	return s, short == 0
}

// stableFrom reports whether t has a non-vacuous suffix on which every output
// event of the family satisfies pred, which is given the event's trace
// index: "eventually permanently pred", read on a finite prefix.  The
// longest suffix on which pred holds is non-vacuous exactly when it contains
// the shortest non-vacuous suffix, so only that one is checked.
func stableFrom(t trace.T, n int, family string, minPer int, pred func(i int) bool) bool {
	isOut := IsOutput(family)
	s, ok := stableSuffix(t, n, isOut, minPer)
	if !ok {
		return false
	}
	for i := s; i < len(t); i++ {
		if isOut(t[i]) && !pred(i) {
			return false
		}
	}
	return true
}

// crashSets returns live(t) and faulty(t) for locations 0..n-1 (cf.
// trace.Live and trace.Faulty).
func crashSets(t trace.T, n int) (live, faulty ioa.LocSet) {
	for _, a := range t {
		if a.Kind == ioa.KindCrash {
			faulty.Add(a.Loc)
		}
	}
	for i := ioa.Loc(0); int(i) < n; i++ {
		if !faulty.Has(i) {
			live.Add(i)
		}
	}
	return live, faulty
}

// suspicionReader is the checkers' single reading of suspicion-set payloads.
// It decodes a payload once and reuses the decode while the outputs at a
// location repeat it.  A malformed payload suspects everyone, which makes
// checkers fail loudly on encoding bugs: it passes completeness and violates
// accuracy.  Sets are restricted to the system's locations [0, n), the only
// ones a clause asks about.
type suspicionReader struct {
	all  ioa.LocSet   // [0, n)
	last []decodedSet // per location: its previous payload and that payload's set
}

type decodedSet struct {
	payload string
	set     ioa.LocSet
	ok      bool
}

func newSuspicionReader(n int) *suspicionReader {
	r := &suspicionReader{}
	for i := ioa.Loc(0); int(i) < n; i++ {
		r.all.Add(i)
	}
	r.last = make([]decodedSet, n)
	return r
}

// set returns the locations output event a suspects; a.Loc must lie in
// [0, n), as validity guarantees.
func (r *suspicionReader) set(a ioa.Action) ioa.LocSet {
	c := &r.last[a.Loc]
	if !c.ok || c.payload != a.Payload {
		set, err := ioa.ParseLocSet(a.Payload)
		if err != nil {
			set = r.all
		}
		c.payload, c.set, c.ok = a.Payload, set.Intersect(r.all), true
	}
	return c.set
}
