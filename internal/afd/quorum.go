package afd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Output families of the quorum-style detectors.
const (
	FamilySigma     = "FD-Σ"
	FamilyAntiOmega = "FD-antiΩ"
	FamilyOmegaK    = "FD-Ωk"
	FamilyPsiK      = "FD-Ψk"
)

// Sigma is the quorum failure detector Σ (Section 1, [8]): every output is a
// set of locations (a quorum) such that
//
//	(1) intersection: every two quorums output anywhere, at any two times,
//	    intersect;
//	(2) eventual liveness: there is a suffix in which every quorum contains
//	    only live locations.
//
// The canonical automaton outputs Π \ crashset; successive outputs are
// nested downward, so any two intersect while some location is live, and
// after the last crash all quorums equal the live set.
type Sigma struct{}

var _ Detector = Sigma{}

// Family implements Detector.
func (Sigma) Family() string { return FamilySigma }

// Automaton implements Detector.
func (Sigma) Automaton(n int) ioa.Automaton {
	return NewGenerator(FamilySigma, n, func(st *GenState, _ ioa.Loc) string {
		return ioa.EncodeLocSet(st.LiveSet())
	}).StablePayload(0)
}

// Check implements Detector.
func (Sigma) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilySigma, w); err != nil {
		return err
	}
	live, _ := crashSets(t, n)
	if live.Len() == 0 {
		return nil
	}
	isOut := IsOutput(FamilySigma)
	// Intersection over the distinct quorums seen (payloads are canonical).
	distinct := make(map[string]ioa.LocSet)
	for _, a := range t {
		if !isOut(a) {
			continue
		}
		if _, ok := distinct[a.Payload]; !ok {
			set, err := ioa.ParseLocSet(a.Payload)
			if err != nil {
				return fmt.Errorf("afd: Σ payload %q: %v", a.Payload, err)
			}
			distinct[a.Payload] = set
		}
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for x := 0; x < len(keys); x++ {
		for y := x; y < len(keys); y++ {
			if distinct[keys[x]].Intersect(distinct[keys[y]]).Len() == 0 {
				return fmt.Errorf("afd: Σ quorums %s and %s do not intersect", keys[x], keys[y])
			}
		}
	}
	// Eventual liveness (unrefutable on a prefix).
	if w.Prefix {
		return nil
	}
	if !stableFrom(t, n, FamilySigma, w.minStable(), func(i int) bool {
		return distinct[t[i].Payload].Minus(live).Len() == 0
	}) {
		return fmt.Errorf("afd: Σ quorums never stabilize to live locations")
	}
	return nil
}

// AntiOmega is the anti-Ω detector ([31]; named in Section 1): every output
// is a single location ID, and some live location is output only finitely
// often (eventually never output anywhere).  anti-Ω is the weakest detector
// for (n−1)-set agreement.
//
// The canonical automaton outputs the successor of min(Π \ crashset) in the
// ring 0..n−1; for n ≥ 2 the minimum live location is eventually never
// output.  The detector is defined for n ≥ 2.
type AntiOmega struct{}

var _ Detector = AntiOmega{}

// Family implements Detector.
func (AntiOmega) Family() string { return FamilyAntiOmega }

// Automaton implements Detector.
func (AntiOmega) Automaton(n int) ioa.Automaton {
	return NewGenerator(FamilyAntiOmega, n, func(st *GenState, _ ioa.Loc) string {
		m := st.MinLive()
		if m == ioa.NoLoc {
			return ioa.EncodeLoc(0)
		}
		return ioa.EncodeLoc(ioa.Loc((int(m) + 1) % st.N))
	}).StablePayload(0)
}

// Check implements Detector.
func (AntiOmega) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyAntiOmega, w); err != nil {
		return err
	}
	if w.Prefix {
		return nil // anti-Ω's only clause beyond validity is eventual
	}
	live := trace.Live(t, n)
	if len(live) == 0 {
		return nil
	}
	for l := range live {
		skip := ioa.EncodeLoc(l)
		if stableFrom(t, n, FamilyAntiOmega, w.minStable(), func(i int) bool {
			return t[i].Payload != skip
		}) {
			return nil
		}
	}
	return fmt.Errorf("afd: anti-Ω: every live location is output into the suffix")
}

// OmegaK is Ωk ([23]; named in Section 3.3 as ◇Ωk): outputs are sets of
// exactly K locations; eventually all outputs everywhere equal one fixed set
// that contains at least one live location.
type OmegaK struct{ K int }

var _ Detector = OmegaK{}

// Family implements Detector.
func (OmegaK) Family() string { return FamilyOmegaK }

// Automaton implements Detector: output the first K locations of the order
// "live ascending, then faulty ascending" — a deterministic set containing
// min(Π \ crashset).
func (d OmegaK) Automaton(n int) ioa.Automaton {
	k := d.K
	return NewGenerator(FamilyOmegaK, n, func(st *GenState, _ ioa.Loc) string {
		return ioa.EncodeLocSet(firstKLiveFirst(st, k))
	}).StablePayload(0)
}

// Check implements Detector.
func (d OmegaK) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyOmegaK, w); err != nil {
		return err
	}
	isOut := IsOutput(FamilyOmegaK)
	// Safety: every output is a set of exactly K locations.
	distinct := make(map[string]ioa.LocSet)
	for _, a := range t {
		if !isOut(a) {
			continue
		}
		if _, ok := distinct[a.Payload]; ok {
			continue
		}
		set, err := ioa.ParseLocSet(a.Payload)
		if err != nil {
			return fmt.Errorf("afd: Ωk payload %q: %v", a.Payload, err)
		}
		if set.Len() != d.K {
			return fmt.Errorf("afd: Ωk output %s has size %d, want %d", a.Payload, set.Len(), d.K)
		}
		distinct[a.Payload] = set
	}
	if w.Prefix {
		return nil // stabilization is eventual
	}
	live, _ := crashSets(t, n)
	if live.Len() == 0 {
		return nil
	}
	// Candidate stabilized set: payload of the last output event.
	var last string
	for i := len(t) - 1; i >= 0; i-- {
		if isOut(t[i]) {
			last = t[i].Payload
			break
		}
	}
	if last == "" {
		return fmt.Errorf("afd: Ωk: no outputs")
	}
	if distinct[last].Intersect(live).Len() == 0 {
		return fmt.Errorf("afd: Ωk stabilized set %s contains no live location", last)
	}
	if !stableFrom(t, n, FamilyOmegaK, w.minStable(), func(i int) bool {
		return t[i].Payload == last
	}) {
		return fmt.Errorf("afd: Ωk outputs do not stabilize to a single set")
	}
	return nil
}

// PsiK is Ψk ([22]; named in Section 3.3 as ◇Ψk): the pairing of a k-quorum
// component with an Ωk component.  Each output payload is "Q;K" where Q is a
// quorum and K a k-set.  Admissibility requires
//
//	(1) k-intersection: among any K+1 quorums output anywhere, some two
//	    intersect;
//	(2) eventual quorum liveness: a suffix exists where quorums contain
//	    only live locations;
//	(3) the K components satisfy Ωk.
type PsiK struct{ K int }

var _ Detector = PsiK{}

// Family implements Detector.
func (PsiK) Family() string { return FamilyPsiK }

// Automaton implements Detector.
func (d PsiK) Automaton(n int) ioa.Automaton {
	k := d.K
	return NewGenerator(FamilyPsiK, n, func(st *GenState, _ ioa.Loc) string {
		return ioa.EncodeLocSet(st.LiveSet()) + ";" + ioa.EncodeLocSet(firstKLiveFirst(st, k))
	}).StablePayload(0)
}

// Check implements Detector.
func (d PsiK) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyPsiK, w); err != nil {
		return err
	}
	live, _ := crashSets(t, n)
	if live.Len() == 0 {
		return nil
	}
	isOut := IsOutput(FamilyPsiK)
	split := func(p string) (string, string, error) {
		parts := strings.SplitN(p, ";", 2)
		if len(parts) != 2 {
			return "", "", fmt.Errorf("afd: Ψk payload %q lacks two components", p)
		}
		return parts[0], parts[1], nil
	}
	// (1) k-intersection over distinct quorums: among any K+1 there are two
	// that intersect ⇔ there is no pairwise-disjoint family of size K+1.
	distinct := make(map[string]ioa.LocSet)
	for _, a := range t {
		if !isOut(a) {
			continue
		}
		q, _, err := split(a.Payload)
		if err != nil {
			return err
		}
		if _, ok := distinct[q]; !ok {
			set, err := ioa.ParseLocSet(q)
			if err != nil {
				return fmt.Errorf("afd: Ψk quorum %q: %v", q, err)
			}
			distinct[q] = set
		}
	}
	if fam := maxDisjointFamily(distinct); fam > d.K {
		return fmt.Errorf("afd: Ψk has %d pairwise-disjoint quorums, want ≤ %d", fam, d.K)
	}
	if w.Prefix {
		return nil // the remaining clauses are eventual
	}
	// (2) eventual quorum liveness and (3) Ωk stabilization, jointly on the
	// stable suffix.
	var lastK string
	for i := len(t) - 1; i >= 0; i-- {
		if isOut(t[i]) {
			_, k, err := split(t[i].Payload)
			if err != nil {
				return err
			}
			lastK = k
			break
		}
	}
	if lastK == "" {
		return fmt.Errorf("afd: Ψk: no outputs")
	}
	kset, err := ioa.ParseLocSet(lastK)
	if err != nil {
		return fmt.Errorf("afd: Ψk k-set %q: %v", lastK, err)
	}
	if kset.Len() != d.K {
		return fmt.Errorf("afd: Ψk k-set %s has size %d, want %d", lastK, kset.Len(), d.K)
	}
	if kset.Intersect(live).Len() == 0 {
		return fmt.Errorf("afd: Ψk stabilized k-set %s contains no live location", lastK)
	}
	if !stableFrom(t, n, FamilyPsiK, w.minStable(), func(i int) bool {
		// Every output's payload split and its quorum decoded above.
		q, k, _ := split(t[i].Payload)
		return k == lastK && distinct[q].Minus(live).Len() == 0
	}) {
		return fmt.Errorf("afd: Ψk outputs do not stabilize")
	}
	return nil
}

// firstKLiveFirst returns the first k locations in the order "live
// ascending, then faulty ascending".
func firstKLiveFirst(st *GenState, k int) map[ioa.Loc]bool {
	out := make(map[ioa.Loc]bool, k)
	for i := 0; i < st.N && len(out) < k; i++ {
		if !st.Crashed[i] {
			out[ioa.Loc(i)] = true
		}
	}
	for i := 0; i < st.N && len(out) < k; i++ {
		if st.Crashed[i] {
			out[ioa.Loc(i)] = true
		}
	}
	return out
}

// maxDisjointFamily returns the size of the largest pairwise-disjoint
// subfamily of the given quorums (greedy over ascending size; exact for the
// nested families our generators produce and a sound lower bound generally,
// which is what the checker needs to reject).
func maxDisjointFamily(quorums map[string]ioa.LocSet) int {
	sets := make([]ioa.LocSet, 0, len(quorums))
	keys := make([]string, 0, len(quorums))
	for k := range quorums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sets = append(sets, quorums[k])
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].Len() < sets[j].Len() })
	var used ioa.LocSet
	count := 0
	for _, s := range sets {
		if s.Intersect(used).Len() == 0 {
			count++
			used = used.Union(s)
		}
	}
	return count
}
