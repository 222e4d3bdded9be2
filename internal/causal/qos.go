package causal

import (
	"sort"

	"repro/internal/ioa"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Detection is one (observer, crashed location) detection: the steps — and,
// for stamped live records, the wall-clock nanoseconds — from the crash to
// the observer's first permanent suspicion of it (the last transition adding
// the subject with no later removal).
type Detection struct {
	Observer   ioa.Loc `json:"observer"`
	Crashed    ioa.Loc `json:"crashed"`
	CrashStep  int     `json:"crashStep"`
	DetectStep int     `json:"detectStep"`
	// Steps is max(DetectStep-CrashStep, 0): a detector that already
	// suspected the location when it crashed detected it instantly.
	Steps int   `json:"steps"`
	Ns    int64 `json:"ns,omitempty"`
}

// Mistake is one wrong-suspicion interval: an observer suspecting a
// location that had not crashed, measured from the suspicion's start to its
// removal, the suspect's crash or the end of the record, whichever comes
// first.
type Mistake struct {
	Observer ioa.Loc `json:"observer"`
	Suspect  ioa.Loc `json:"suspect"`
	Start    int     `json:"start"`
	End      int     `json:"end"`
	Steps    int     `json:"steps"`
	Ns       int64   `json:"ns,omitempty"`
	// Removed reports whether the detector itself ended the interval (the
	// accuracy-restoring transition), as opposed to the crash or the end of
	// the record.
	Removed bool `json:"removed"`
}

// Stats is the QoS record of one detector family over one execution.
// Step-indexed figures are always present; Ns figures are filled when the
// record carries wall-clock stamps (live runs).
type Stats struct {
	Family string `json:"family"`
	// Observers counts the locations that emitted at least one output of
	// the family.
	Observers int `json:"observers"`

	Detections []Detection `json:"detections,omitempty"`
	Mistakes   []Mistake   `json:"mistakes,omitempty"`

	DetectionMeanSteps float64 `json:"detectionMeanSteps,omitempty"`
	DetectionMaxSteps  int     `json:"detectionMaxSteps,omitempty"`
	DetectionMeanNs    float64 `json:"detectionMeanNs,omitempty"`
	DetectionMaxNs     int64   `json:"detectionMaxNs,omitempty"`
	// PropagationSteps is the suspicion-propagation spread per crash,
	// maximized over crashes: last observer's permanent detection minus the
	// first's — how long the failure's knowledge took to cover the mesh.
	PropagationSteps int   `json:"propagationSteps,omitempty"`
	PropagationNs    int64 `json:"propagationNs,omitempty"`

	MistakeCount     int     `json:"mistakeCount,omitempty"`
	MistakeMeanSteps float64 `json:"mistakeMeanSteps,omitempty"`
	MistakeMaxSteps  int     `json:"mistakeMaxSteps,omitempty"`
}

// Compute derives per-family QoS from a recorded trace.  stamps, when
// parallel to the trace (live records), adds wall-clock figures; pass nil
// for simulated records.  Steps are trace event indices — the uniform
// "time" both engines share.
func Compute(t trace.T, stamps []int64) []Stats {
	type obsPair struct {
		obs, sub ioa.Loc
	}
	stamped := len(stamps) == len(t) && len(t) > 0

	crashStep := map[ioa.Loc]int{}
	for idx, act := range t {
		if act.Kind != ioa.KindCrash {
			continue
		}
		if _, ok := crashStep[act.Loc]; !ok {
			crashStep[act.Loc] = idx
		}
	}
	// mistake ends the wrong suspicion p opened at start: at end, or at the
	// suspect's crash if that came first, in which case the detector did not
	// take it back.
	mistake := func(p obsPair, start, end int, removed bool) Mistake {
		if cs, crashed := crashStep[p.sub]; crashed && cs < end {
			end, removed = cs, false
		}
		m := Mistake{
			Observer: p.obs, Suspect: p.sub,
			Start: start, End: end, Steps: end - start,
			Removed: removed,
		}
		if stamped && end < len(stamps) {
			m.Ns = stamps[end] - stamps[start]
		}
		return m
	}

	observers := map[string]map[ioa.Loc]bool{}
	// Per family: the start of each open wrong suspicion and the event of
	// the last still-standing addition (candidate permanent detection).
	open := map[string]map[obsPair]int{}
	closed := map[string][]Mistake{}
	lastAdd := map[string]map[obsPair]int{}
	foldSuspicions(t, func(tr Transition) {
		fam := tr.Family
		if observers[fam] == nil {
			observers[fam] = map[ioa.Loc]bool{}
			open[fam] = map[obsPair]int{}
			lastAdd[fam] = map[obsPair]int{}
		}
		observers[fam][tr.Observer] = true
		for _, j := range tr.Added {
			p := obsPair{tr.Observer, j}
			lastAdd[fam][p] = tr.Event
			if cs, crashed := crashStep[j]; !crashed || cs > tr.Event {
				if _, o := open[fam][p]; !o {
					open[fam][p] = tr.Event
				}
			}
		}
		for _, j := range tr.Removed {
			p := obsPair{tr.Observer, j}
			delete(lastAdd[fam], p)
			if start, o := open[fam][p]; o {
				delete(open[fam], p)
				closed[fam] = append(closed[fam], mistake(p, start, tr.Event, true))
			}
		}
	})

	end := len(t)
	fams := make([]string, 0, len(observers))
	for f := range observers {
		fams = append(fams, f)
	}
	sort.Strings(fams)

	out := make([]Stats, 0, len(fams))
	for _, fam := range fams {
		s := Stats{Family: fam, Observers: len(observers[fam])}

		// Detections: last-standing additions of crashed locations.
		perCrash := map[ioa.Loc][]int{} // crashed → permanent detection steps per observer
		for p, addIdx := range lastAdd[fam] {
			cs, crashed := crashStep[p.sub]
			if !crashed {
				continue
			}
			det := Detection{
				Observer: p.obs, Crashed: p.sub,
				CrashStep: cs, DetectStep: addIdx,
				Steps: max(addIdx-cs, 0),
			}
			if stamped {
				det.Ns = max(stamps[addIdx]-stamps[cs], 0)
			}
			s.Detections = append(s.Detections, det)
			perCrash[p.sub] = append(perCrash[p.sub], addIdx)
		}
		sort.Slice(s.Detections, func(i, j int) bool {
			a, b := s.Detections[i], s.Detections[j]
			return a.Crashed < b.Crashed || (a.Crashed == b.Crashed && a.Observer < b.Observer)
		})
		var sumSteps, sumNs float64
		for _, det := range s.Detections {
			sumSteps += float64(det.Steps)
			sumNs += float64(det.Ns)
			if det.Steps > s.DetectionMaxSteps {
				s.DetectionMaxSteps = det.Steps
			}
			if det.Ns > s.DetectionMaxNs {
				s.DetectionMaxNs = det.Ns
			}
		}
		if n := len(s.Detections); n > 0 {
			s.DetectionMeanSteps = sumSteps / float64(n)
			if stamped {
				s.DetectionMeanNs = sumNs / float64(n)
			}
		}
		for _, dets := range perCrash {
			if len(dets) < 2 {
				continue
			}
			lo, hi := dets[0], dets[0]
			for _, v := range dets[1:] {
				lo, hi = min(lo, v), max(hi, v)
			}
			if spread := hi - lo; spread > s.PropagationSteps {
				s.PropagationSteps = spread
			}
			if stamped {
				if spread := stamps[hi] - stamps[lo]; spread > s.PropagationNs {
					s.PropagationNs = spread
				}
			}
		}

		// Mistakes: closed intervals plus still-open wrong suspicions,
		// truncated at the suspect's crash or the record's end.
		s.Mistakes = append(s.Mistakes, closed[fam]...)
		for p, start := range open[fam] {
			s.Mistakes = append(s.Mistakes, mistake(p, start, end, false))
		}
		sort.Slice(s.Mistakes, func(i, j int) bool {
			a, b := s.Mistakes[i], s.Mistakes[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.Observer != b.Observer {
				return a.Observer < b.Observer
			}
			return a.Suspect < b.Suspect
		})
		s.MistakeCount = len(s.Mistakes)
		var mSum float64
		for _, m := range s.Mistakes {
			mSum += float64(m.Steps)
			if m.Steps > s.MistakeMaxSteps {
				s.MistakeMaxSteps = m.Steps
			}
		}
		if s.MistakeCount > 0 {
			s.MistakeMeanSteps = mSum / float64(s.MistakeCount)
		}
		out = append(out, s)
	}
	return out
}

// RecordQoS records the detector QoS of a finished trace into tel:
// CSuspicionAdded and CSuspicionRemoved sum the additions and removals of
// every suspect-set transition, HDetectionLatency samples every
// Detection.Steps and HMistakeDuration every Mistake.Steps that Compute
// reports.  It reads the fold Transitions and Compute read, so telemetry and
// the offline analyses agree by construction, for simulated and live
// traces alike.
func RecordQoS(t trace.T, tel telemetry.Sink) {
	var added, removed int
	foldSuspicions(t, func(tr Transition) {
		added += len(tr.Added)
		removed += len(tr.Removed)
	})
	tel.Count(telemetry.CSuspicionAdded, int64(added))
	tel.Count(telemetry.CSuspicionRemoved, int64(removed))
	for _, s := range Compute(t, nil) {
		for _, d := range s.Detections {
			tel.Observe(telemetry.HDetectionLatency, int64(d.Steps))
		}
		for _, m := range s.Mistakes {
			tel.Observe(telemetry.HMistakeDuration, int64(m.Steps))
		}
	}
}

// Summary aggregates a family's Stats across many executions (a chaos
// survey cell, a size sweep row).  Ns figures are zero unless every
// aggregated record with detections was stamped.
type Summary struct {
	Family string `json:"family"`
	Runs   int    `json:"runs"`

	Detections         int     `json:"detections"`
	DetectionMeanSteps float64 `json:"detectionMeanSteps"`
	DetectionMaxSteps  int     `json:"detectionMaxSteps"`
	DetectionMeanNs    float64 `json:"detectionMeanNs,omitempty"`
	DetectionMaxNs     int64   `json:"detectionMaxNs,omitempty"`

	PropagationMeanSteps float64 `json:"propagationMeanSteps"`
	PropagationMaxSteps  int     `json:"propagationMaxSteps"`

	Mistakes         int     `json:"mistakes"`
	MistakesPerRun   float64 `json:"mistakesPerRun"`
	MistakeMeanSteps float64 `json:"mistakeMeanSteps"`
	MistakeMaxSteps  int     `json:"mistakeMaxSteps"`
}

// Summarize aggregates per-run Stats by family, sorted by family name.
func Summarize(all []Stats) []Summary {
	byFam := map[string]*Summary{}
	var detSteps, detNs, propSteps, misSteps map[string]float64
	detSteps = map[string]float64{}
	detNs = map[string]float64{}
	propSteps = map[string]float64{}
	misSteps = map[string]float64{}
	stampedAll := map[string]bool{}
	for _, s := range all {
		sum := byFam[s.Family]
		if sum == nil {
			sum = &Summary{Family: s.Family}
			byFam[s.Family] = sum
			stampedAll[s.Family] = true
		}
		sum.Runs++
		sum.Detections += len(s.Detections)
		detSteps[s.Family] += s.DetectionMeanSteps * float64(len(s.Detections))
		detNs[s.Family] += s.DetectionMeanNs * float64(len(s.Detections))
		// Only runs with detections say whether the record was stamped.
		if len(s.Detections) > 0 && s.DetectionMeanNs == 0 {
			stampedAll[s.Family] = false
		}
		if s.DetectionMaxSteps > sum.DetectionMaxSteps {
			sum.DetectionMaxSteps = s.DetectionMaxSteps
		}
		if s.DetectionMaxNs > sum.DetectionMaxNs {
			sum.DetectionMaxNs = s.DetectionMaxNs
		}
		propSteps[s.Family] += float64(s.PropagationSteps)
		if s.PropagationSteps > sum.PropagationMaxSteps {
			sum.PropagationMaxSteps = s.PropagationSteps
		}
		sum.Mistakes += s.MistakeCount
		misSteps[s.Family] += s.MistakeMeanSteps * float64(s.MistakeCount)
		if s.MistakeMaxSteps > sum.MistakeMaxSteps {
			sum.MistakeMaxSteps = s.MistakeMaxSteps
		}
	}
	fams := make([]string, 0, len(byFam))
	for f := range byFam {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	out := make([]Summary, 0, len(fams))
	for _, f := range fams {
		sum := byFam[f]
		if sum.Detections > 0 {
			sum.DetectionMeanSteps = detSteps[f] / float64(sum.Detections)
			if stampedAll[f] {
				sum.DetectionMeanNs = detNs[f] / float64(sum.Detections)
			} else {
				sum.DetectionMaxNs = 0
			}
		}
		if sum.Runs > 0 {
			sum.PropagationMeanSteps = propSteps[f] / float64(sum.Runs)
			sum.MistakesPerRun = float64(sum.Mistakes) / float64(sum.Runs)
		}
		if sum.Mistakes > 0 {
			sum.MistakeMeanSteps = misSteps[f] / float64(sum.Mistakes)
		}
		out = append(out, *sum)
	}
	return out
}
