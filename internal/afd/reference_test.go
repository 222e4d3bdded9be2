package afd

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// refCheckSuspicions is the map-based checker checkSuspicions replaced: it
// re-parses the payload with ioa.DecodeLocSet for every location it asks
// about, and every clause ranges over the trace.  It is kept as the
// reference the decode-once checker is compared against.  One departure:
// the original ranged over the faulty map in weak completeness, so with
// several unsatisfied faulty locations it named a random one; the copy
// names the least, as checkSuspicions does.
func refCheckSuspicions(t trace.T, n int, family string, w Window, props suspicionProps) error {
	isOut := IsOutput(family)
	live := trace.Live(t, n)
	faulty := trace.Faulty(t)
	if len(live) == 0 {
		return nil
	}

	if props&accuracyPerpetual != 0 {
		crashed := make(map[ioa.Loc]bool)
		for _, a := range t {
			if a.Kind == ioa.KindCrash {
				crashed[a.Loc] = true
				continue
			}
			if !isOut(a) {
				continue
			}
			for i := 0; i < n; i++ {
				if refSuspects(a, ioa.Loc(i)) && !crashed[ioa.Loc(i)] {
					return fmt.Errorf("afd: %s suspects %d before crash (strong accuracy)", a, i)
				}
			}
		}
	}

	if props&accuracyWeak != 0 {
		ok := false
		for l := range live {
			suspected := false
			for _, a := range t {
				if isOut(a) && refSuspects(a, l) {
					suspected = true
					break
				}
			}
			if !suspected {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("afd: %s: every live location suspected at some point (weak accuracy)", family)
		}
	}

	if w.Prefix {
		return nil
	}

	if props&accuracyEventualStrong != 0 {
		if _, ok := refStableFrom(t, n, family, w.minStable(), func(a ioa.Action) bool {
			for l := range live {
				if refSuspects(a, l) {
					return false
				}
			}
			return true
		}); !ok {
			return fmt.Errorf("afd: %s never stops suspecting live locations (eventual strong accuracy)", family)
		}
	}

	if props&accuracyEventualWeak != 0 {
		ok := false
		for l := range live {
			if _, good := refStableFrom(t, n, family, w.minStable(), func(a ioa.Action) bool {
				return !refSuspects(a, l)
			}); good {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("afd: %s: no live location eventually unsuspected (eventual weak accuracy)", family)
		}
	}

	if props&completenessStrong != 0 {
		if _, ok := refStableFrom(t, n, family, w.minStable(), func(a ioa.Action) bool {
			for f := range faulty {
				if !refSuspects(a, f) {
					return false
				}
			}
			return true
		}); !ok {
			return fmt.Errorf("afd: %s: faulty locations not eventually permanently suspected (strong completeness)", family)
		}
	}

	if props&completenessWeak != 0 {
		fs := make([]ioa.Loc, 0, len(faulty))
		for f := range faulty {
			fs = append(fs, f)
		}
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
		for _, f := range fs {
			ok := false
			for l := range live {
				s := len(t)
				for i := len(t) - 1; i >= 0; i-- {
					a := t[i]
					if isOut(a) && a.Loc == l && !refSuspects(a, f) {
						break
					}
					s = i
				}
				cnt := 0
				for _, a := range t[s:] {
					if isOut(a) && a.Loc == l {
						cnt++
					}
				}
				if cnt >= w.minStable() {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("afd: %s: faulty %v not permanently suspected by any live location (weak completeness)", family, f)
			}
		}
	}

	return nil
}

// refStableFrom is the reference stable-suffix search: the least s such
// that every output in t[s:] satisfies pred, and whether t[s:] holds at
// least minPer outputs at every live location.
func refStableFrom(t trace.T, n int, family string, minPer int, pred func(a ioa.Action) bool) (int, bool) {
	isOut := IsOutput(family)
	s := len(t)
	for i := len(t) - 1; i >= 0; i-- {
		if isOut(t[i]) && !pred(t[i]) {
			break
		}
		s = i
	}
	live := trace.Live(t, n)
	counts := make(map[ioa.Loc]int)
	for _, a := range t[s:] {
		if isOut(a) {
			counts[a.Loc]++
		}
	}
	for l := range live {
		if counts[l] < minPer {
			return s, false
		}
	}
	return s, true
}

// refSuspects is the reference payload reading: decode afresh, and a
// malformed payload suspects everyone.
func refSuspects(a ioa.Action, i ioa.Loc) bool {
	set, err := ioa.DecodeLocSet(a.Payload)
	if err != nil {
		return true
	}
	return set[i]
}

// suspicionCheckers are the suspicion-set detectors and the property
// combinations their Check methods pass to checkSuspicions.
var suspicionCheckers = []struct {
	family string
	props  suspicionProps
}{
	{FamilyP, accuracyPerpetual | completenessStrong},
	{FamilyEvP, accuracyEventualStrong | completenessStrong},
	{FamilyS, completenessStrong | accuracyWeak},
	{FamilyW, completenessWeak | accuracyWeak},
	{FamilyQ, completenessWeak | accuracyPerpetual},
	{FamilyEvS, completenessStrong | accuracyEventualWeak},
	{FamilyEvW, completenessWeak | accuracyEventualWeak},
	{FamilyEvQ, completenessWeak | accuracyEventualStrong},
}

// oddPayloads are the payload shapes a checker must read like the map
// decoder: empty, a duplicate member, negative and ≥64 locations, a
// location past n, and malformed strings (which suspect everyone).
var oddPayloads = []string{"{}", "{1,1}", "{-1,0}", "{64}", "{0,64,-3}", "{9}", "garbage", "{0,,1}", ""}

// genSuspicionTrace returns a validity-respecting suspicion trace over n
// locations: crashes of a random plan interleaved with outputs at
// uncrashed locations.  Early outputs carry random or odd payloads; later
// ones lean towards the accurate crash set, a location's own mistakes or
// a fixed set, so that traces both satisfy and violate every clause.
func genSuspicionTrace(rng *rand.Rand, n int, family string) trace.T {
	crashed := make([]bool, n)
	var plan []ioa.Loc
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			plan = append(plan, ioa.Loc(i))
		}
	}
	steps := 5 + rng.Intn(60)
	late := rng.Intn(steps + 1)
	mode := rng.Intn(4)
	var t trace.T
	for step := 0; step < steps; step++ {
		if len(plan) > 0 && rng.Intn(6) == 0 {
			crashed[plan[0]] = true
			t = append(t, ioa.Crash(plan[0]))
			plan = plan[1:]
			continue
		}
		var up []ioa.Loc
		for i := 0; i < n; i++ {
			if !crashed[i] {
				up = append(up, ioa.Loc(i))
			}
		}
		if len(up) == 0 {
			break
		}
		at := up[rng.Intn(len(up))]
		crashSet := map[ioa.Loc]bool{}
		for i, c := range crashed {
			if c {
				crashSet[ioa.Loc(i)] = true
			}
		}
		var payload string
		switch {
		case step < late && rng.Intn(4) == 0:
			payload = oddPayloads[rng.Intn(len(oddPayloads))]
		case step < late:
			set := map[ioa.Loc]bool{}
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					set[ioa.Loc(i)] = true
				}
			}
			payload = ioa.EncodeLocSet(set)
		case mode == 0:
			payload = ioa.EncodeLocSet(crashSet)
		case mode == 1: // only location 0 reports the crash set
			if at == 0 {
				payload = ioa.EncodeLocSet(crashSet)
			} else {
				payload = "{}"
			}
		case mode == 2: // the crash set plus a mistake about location 1
			crashSet[1] = true
			payload = ioa.EncodeLocSet(crashSet)
		default:
			payload = oddPayloads[rng.Intn(len(oddPayloads))]
		}
		t = append(t, ioa.FDOutput(family, at, payload))
	}
	return t
}

// TestCheckSuspicionsMatchesReference compares the decode-once checker
// with the map-based reference over generated traces for every
// suspicion-set detector, under the default, prefix and MinStableOutputs>1
// windows, and at a size (n=66) whose sets spill past the 64-bit mask: the
// verdicts and the error texts must be equal.
func TestCheckSuspicionsMatchesReference(t *testing.T) {
	windows := []Window{DefaultWindow(), PrefixWindow(), {MinOutputsPerLive: 1, MinStableOutputs: 2}, {MinOutputsPerLive: 1, MinStableOutputs: 3}}
	rng := rand.New(rand.NewSource(1))
	iters := 4000
	if testing.Short() {
		iters = 800
	}
	clauses := map[string]int{}
	for it := 0; it < iters; it++ {
		c := suspicionCheckers[it%len(suspicionCheckers)]
		n := 1 + rng.Intn(5)
		if it%50 == 0 {
			n = 66
		}
		tr := genSuspicionTrace(rng, n, c.family)
		if err := CheckValidity(tr, n, c.family, PrefixWindow()); err != nil {
			t.Fatalf("generator made an invalid trace: %v", err)
		}
		for _, w := range windows {
			want := refCheckSuspicions(tr, n, c.family, w, c.props)
			got := checkSuspicions(tr, n, c.family, w, c.props)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s n=%d window %+v on %v:\n got %v\nwant %v", c.family, n, w, tr, got, want)
			}
			clause := "ok"
			if want != nil {
				clause = want.Error()[strings.LastIndexByte(want.Error(), '('):]
			}
			clauses[clause]++
		}
	}
	for _, clause := range []string{"ok", "(strong accuracy)", "(weak accuracy)", "(eventual strong accuracy)",
		"(eventual weak accuracy)", "(strong completeness)", "(weak completeness)"} {
		if clauses[clause] == 0 {
			t.Errorf("no generated trace reached %s; verdicts seen: %v", clause, clauses)
		}
	}
}
