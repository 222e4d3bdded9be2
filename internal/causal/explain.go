package causal

import (
	"fmt"
	"slices"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Transition is one FD-output event that changed an observer's suspect set:
// the suspicion additions and removals it performed relative to the
// observer's previous output of the same detector family.
type Transition struct {
	// Event indexes the FD-output event in the trace.
	Event int `json:"event"`
	// Observer is the location whose detector copy produced the output;
	// Family names the detector (gossip locations run two copies).
	Observer ioa.Loc   `json:"observer"`
	Family   string    `json:"family"`
	Added    []ioa.Loc `json:"added,omitempty"`
	Removed  []ioa.Loc `json:"removed,omitempty"`
}

// Transitions scans the trace for suspect-set transitions, in event order.
// FD outputs with undecodable payloads are skipped (the AFD layer's
// "suspect everyone" reading of malformed payloads is a checker-side
// convention; provenance only explains well-formed sets).
func (d *DAG) Transitions() []Transition {
	var out []Transition
	foldSuspicions(d.Events, func(tr Transition) {
		if len(tr.Added) > 0 || len(tr.Removed) > 0 {
			tr.Added, tr.Removed = cloneLocs(tr.Added), cloneLocs(tr.Removed)
			out = append(out, tr)
		}
	})
	return out
}

// foldSuspicions is the one reading of a trace's suspect-set stream, shared
// by Transitions, Compute and RecordQoS.  It calls visit once per
// well-formed FD output, in event order, with the locations the output added
// to and removed from the previous set of the same (family, observer) — both
// empty when it changed nothing, so visit still sees the observer.  Added
// and Removed are sorted scratch buffers, valid only during the call.  An
// output whose payload repeats its predecessor's is not decoded again;
// undecodable payloads are skipped.
func foldSuspicions(t trace.T, visit func(Transition)) {
	type fdKey struct {
		name string
		loc  ioa.Loc
	}
	type fdLast struct {
		payload string
		set     map[ioa.Loc]bool
	}
	last := map[fdKey]fdLast{}
	var added, removed []ioa.Loc
	for idx, act := range t {
		if act.Kind != ioa.KindFD {
			continue
		}
		key := fdKey{act.Name, act.Loc}
		prev, seen := last[key]
		added, removed = added[:0], removed[:0]
		if !seen || act.Payload != prev.payload {
			set, err := ioa.DecodeLocSet(act.Payload)
			if err != nil {
				continue
			}
			for j := range set {
				if !prev.set[j] {
					added = append(added, j)
				}
			}
			for j := range prev.set {
				if !set[j] {
					removed = append(removed, j)
				}
			}
			slices.Sort(added)
			slices.Sort(removed)
			last[key] = fdLast{act.Payload, set}
		}
		visit(Transition{Event: idx, Observer: act.Loc, Family: act.Name, Added: added, Removed: removed})
	}
}

// cloneLocs copies a scratch location list, keeping an empty one nil.
func cloneLocs(ls []ioa.Loc) []ioa.Loc {
	if len(ls) == 0 {
		return nil
	}
	return append([]ioa.Loc(nil), ls...)
}

// ChainLink is one event on a minimal explaining chain.
type ChainLink struct {
	// Event is the trace index; Action its paper-notation rendering; Loc the
	// location the event occurred at.
	Event  int     `json:"event"`
	Action string  `json:"action"`
	Loc    ioa.Loc `json:"loc"`
	// EdgeToNext names the happens-before edge kind connecting this link to
	// the next one ("" on the final link).
	EdgeToNext string `json:"edgeToNext,omitempty"`
	// EdgeVerified reports the connecting edge's diff-verification.
	EdgeVerified bool `json:"edgeVerified,omitempty"`
	// StampNs is the event's wall-clock offset (live records), else -1.
	StampNs int64 `json:"stampNs"`
}

// Explanation is the causal provenance of one suspicion change: the
// transition, the origin event the chain is traced back to, and the minimal
// (fewest-edge) happens-before chain from origin to transition.
type Explanation struct {
	Transition Transition `json:"transition"`
	// Subject is the location whose suspicion is being explained; Added
	// whether it entered (true) or left (false) the suspect set.
	Subject ioa.Loc `json:"subject"`
	Added   bool    `json:"added"`
	// Origin is the chain's first event: the subject's crash when it is in
	// the transition's causal cone (OriginIsCrash), else the cone's earliest
	// event — the information the suspicion change is rooted in.
	Origin        int  `json:"origin"`
	OriginIsCrash bool `json:"originIsCrash"`
	// Chain is the minimal happens-before path, origin first.
	Chain []ChainLink `json:"chain"`
	// ConeSize is the transition's full causal-cone cardinality.
	ConeSize int `json:"coneSize"`
}

// Explain computes the provenance of subject's membership change in the
// given transition.  The transition must come from Transitions on the same
// DAG, and subject must appear in its Added or Removed set.
func (d *DAG) Explain(tr Transition, subject ioa.Loc) (*Explanation, error) {
	added := containsLoc(tr.Added, subject)
	if !added && !containsLoc(tr.Removed, subject) {
		return nil, fmt.Errorf("causal: event %d (%v) does not change suspicion of %v",
			tr.Event, d.Events[tr.Event], subject)
	}

	// BFS backward over preds from the transition: parentEdge[v] is the edge
	// index first used to reach v, giving fewest-edge chains.
	parentEdge := map[int]int32{tr.Event: -1}
	queue := []int{tr.Event}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, ei := range d.preds[v] {
			u := d.Edges[ei].From
			if _, seen := parentEdge[u]; !seen {
				parentEdge[u] = ei
				queue = append(queue, u)
			}
		}
	}

	ex := &Explanation{
		Transition: tr,
		Subject:    subject,
		Added:      added,
		ConeSize:   len(parentEdge),
	}

	// Origin: the subject's crash if it is in the cone; otherwise the
	// earliest cone event (the suspicion is rooted in timing, not failure —
	// a mistake, or a removal learned through refutation).
	origin := -1
	earliest := tr.Event
	for v := range parentEdge {
		if v < earliest {
			earliest = v
		}
		a := d.Events[v]
		if a.Kind == ioa.KindCrash && a.Loc == subject && (origin < 0 || v < origin) {
			origin = v
		}
	}
	if origin >= 0 {
		ex.OriginIsCrash = true
	} else {
		origin = earliest
	}
	ex.Origin = origin

	// Walk parent pointers origin → transition; the path exists because
	// origin was reached by the BFS.
	var path []int32 // edge indices, transition-side first
	for v := origin; v != tr.Event; {
		ei := parentEdge[v]
		path = append(path, ei)
		v = d.Edges[ei].To
	}
	ex.Chain = make([]ChainLink, 0, len(path)+1)
	link := func(ev int) ChainLink {
		return ChainLink{
			Event:   ev,
			Action:  d.Events[ev].String(),
			Loc:     d.Events[ev].Loc,
			StampNs: d.StampNs(ev),
		}
	}
	cur := link(origin)
	for _, ei := range path {
		e := d.Edges[ei]
		cur.EdgeToNext = e.Kind.String()
		cur.EdgeVerified = e.Verified
		ex.Chain = append(ex.Chain, cur)
		cur = link(e.To)
	}
	ex.Chain = append(ex.Chain, cur)
	return ex, nil
}

func containsLoc(ls []ioa.Loc, l ioa.Loc) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}
