package causal

import (
	"reflect"
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// handTrace is a small execution with one crash, one detection at each of
// two observers, and one wrong suspicion that gets taken back:
//
//	0 send(x,1)_0        filler
//	1 FD-P({2})_0        observer 0 wrongly suspects 2
//	2 crash_1
//	3 FD-P({1,2})_0      observer 0 detects 1 (still wrong about 2)
//	4 FD-P({1})_0        observer 0 takes the mistake back
//	5 FD-P({1})_2        observer 2 detects 1
func handTrace() trace.T {
	return trace.T{
		ioa.Send(0, 1, "x"),
		ioa.FDOutput("FD-P", 0, "{2}"),
		ioa.Crash(1),
		ioa.FDOutput("FD-P", 0, "{1,2}"),
		ioa.FDOutput("FD-P", 0, "{1}"),
		ioa.FDOutput("FD-P", 2, "{1}"),
	}
}

func TestComputeSteps(t *testing.T) {
	stats := Compute(handTrace(), nil)
	if len(stats) != 1 {
		t.Fatalf("families = %d, want 1", len(stats))
	}
	s := stats[0]
	if s.Family != "FD-P" || s.Observers != 2 {
		t.Fatalf("family %q observers %d", s.Family, s.Observers)
	}
	if len(s.Detections) != 2 {
		t.Fatalf("detections = %+v, want 2", s.Detections)
	}
	d0, d2 := s.Detections[0], s.Detections[1]
	if d0.Observer != 0 || d0.Crashed != 1 || d0.CrashStep != 2 || d0.DetectStep != 3 || d0.Steps != 1 {
		t.Fatalf("detection at observer 0: %+v", d0)
	}
	if d2.Observer != 2 || d2.DetectStep != 5 || d2.Steps != 3 {
		t.Fatalf("detection at observer 2: %+v", d2)
	}
	if s.DetectionMaxSteps != 3 || s.DetectionMeanSteps != 2 {
		t.Fatalf("detection max %d mean %f", s.DetectionMaxSteps, s.DetectionMeanSteps)
	}
	if s.PropagationSteps != 2 { // detections at events 3 and 5
		t.Fatalf("propagation = %d, want 2", s.PropagationSteps)
	}
	if s.MistakeCount != 1 {
		t.Fatalf("mistakes = %+v", s.Mistakes)
	}
	m := s.Mistakes[0]
	if m.Observer != 0 || m.Suspect != 2 || m.Start != 1 || m.End != 4 || m.Steps != 3 || !m.Removed {
		t.Fatalf("mistake = %+v", m)
	}
}

func TestComputeStamped(t *testing.T) {
	stamps := []int64{0, 100, 200, 350, 500, 900}
	stats := Compute(handTrace(), stamps)
	s := stats[0]
	if s.Detections[0].Ns != 150 || s.Detections[1].Ns != 700 {
		t.Fatalf("detection ns = %d, %d", s.Detections[0].Ns, s.Detections[1].Ns)
	}
	if s.DetectionMaxNs != 700 {
		t.Fatalf("detection max ns = %d", s.DetectionMaxNs)
	}
	if s.PropagationNs != 550 { // stamps[5]-stamps[3]
		t.Fatalf("propagation ns = %d", s.PropagationNs)
	}
	if s.Mistakes[0].Ns != 400 { // stamps[4]-stamps[1]
		t.Fatalf("mistake ns = %d", s.Mistakes[0].Ns)
	}
}

// A suspicion never taken back, of a location that never crashes, is a
// mistake truncated at the record's end; a suspicion of a location that
// crashes later is truncated at the crash.
func TestComputeOpenMistakes(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput("FD-◇Q", 0, "{1,2}"), // 0: suspects 1 and 2, both live
		ioa.Crash(1),                      // 1: 1 does crash — mistake [0,1]
	}
	stats := Compute(tr, nil)
	s := stats[0]
	if len(s.Mistakes) != 2 {
		t.Fatalf("mistakes = %+v, want 2", s.Mistakes)
	}
	for _, m := range s.Mistakes {
		if m.Removed {
			t.Fatalf("open mistake marked removed: %+v", m)
		}
		switch m.Suspect {
		case 1:
			if m.End != 1 || m.Steps != 1 {
				t.Fatalf("crash-truncated mistake: %+v", m)
			}
		case 2:
			if m.End != 2 || m.Steps != 2 {
				t.Fatalf("end-truncated mistake: %+v", m)
			}
		}
	}
	// The pre-crash suspicion of 1 stands at the end, so it is also the
	// permanent detection — with zero latency (clamped).
	if len(s.Detections) != 1 || s.Detections[0].Steps != 0 {
		t.Fatalf("detections = %+v", s.Detections)
	}
}

func TestComputeSkipsMalformedPayloads(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput("FD-P", 0, "not-a-set"),
		ioa.FDOutput("FD-P", 0, "{}"),
	}
	stats := Compute(tr, nil)
	if len(stats) != 1 || stats[0].MistakeCount != 0 || len(stats[0].Detections) != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSummarize(t *testing.T) {
	runs := []Stats{
		{Family: "FD-P", Detections: []Detection{{Steps: 2}, {Steps: 4}},
			DetectionMeanSteps: 3, DetectionMaxSteps: 4, PropagationSteps: 2,
			MistakeCount: 1, MistakeMeanSteps: 5, MistakeMaxSteps: 5},
		{Family: "FD-P", Detections: []Detection{{Steps: 6}},
			DetectionMeanSteps: 6, DetectionMaxSteps: 6, PropagationSteps: 4},
	}
	sums := Summarize(runs)
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	s := sums[0]
	if s.Runs != 2 || s.Detections != 3 {
		t.Fatalf("runs %d detections %d", s.Runs, s.Detections)
	}
	if s.DetectionMeanSteps != 4 { // (2+4+6)/3
		t.Fatalf("detection mean = %f", s.DetectionMeanSteps)
	}
	if s.DetectionMaxSteps != 6 || s.PropagationMaxSteps != 4 || s.PropagationMeanSteps != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mistakes != 1 || s.MistakesPerRun != 0.5 || s.MistakeMeanSteps != 5 {
		t.Fatalf("mistake aggregate = %+v", s)
	}

	// A stamped run beside one with no detections keeps its wall-clock
	// figures: only runs with detections say whether the record was stamped.
	stamped := Summarize([]Stats{
		{Family: "FD-P", Detections: []Detection{{Ns: 100}, {Ns: 200}},
			DetectionMeanNs: 150, DetectionMaxNs: 200},
		{Family: "FD-P"},
	})[0]
	if stamped.DetectionMeanNs != 150 || stamped.DetectionMaxNs != 200 {
		t.Fatalf("stamped summary beside an empty run = %+v", stamped)
	}
}

// A wrong suspicion whose suspect crashes before the detector takes it back
// ends at the crash, not at the later removal.
func TestComputeMistakeEndsAtCrash(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput("FD-P", 0, "{1}"), // 0: 0 suspects 1 while it is live
		ioa.Crash(1),                   // 1: 1 crashes
		ioa.FDOutput("FD-P", 0, "{}"),  // 2: 0 drops the suspicion
	}
	stats := Compute(tr, []int64{0, 100, 300})
	want := []Mistake{{Observer: 0, Suspect: 1, Start: 0, End: 1, Steps: 1, Ns: 100}}
	if got := stats[0].Mistakes; !reflect.DeepEqual(got, want) {
		t.Fatalf("mistakes = %+v, want %+v", got, want)
	}
}

// TestSuspicionFoldTable pins what Transitions and Compute read out of the
// same FD outputs on hand-made traces, so both stay one reading of the
// suspect-set stream.  Observers counts outputs that change nothing, which
// Transitions drops.
func TestSuspicionFoldTable(t *testing.T) {
	cases := []struct {
		name  string
		trace trace.T
		trs   []Transition
		stats []Stats
	}{
		{
			name:  "empty first output",
			trace: trace.T{ioa.FDOutput("FD-P", 0, "{}")},
			stats: []Stats{{Family: "FD-P", Observers: 1}},
		},
		{
			name: "repeated identical payload",
			trace: trace.T{
				ioa.FDOutput("FD-P", 0, "{1}"),
				ioa.FDOutput("FD-P", 0, "{1}"),
			},
			trs: []Transition{{Event: 0, Observer: 0, Family: "FD-P", Added: []ioa.Loc{1}}},
			stats: []Stats{{
				Family: "FD-P", Observers: 1,
				Mistakes:     []Mistake{{Observer: 0, Suspect: 1, Start: 0, End: 2, Steps: 2}},
				MistakeCount: 1, MistakeMeanSteps: 2, MistakeMaxSteps: 2,
			}},
		},
		{
			name: "malformed payload",
			trace: trace.T{
				ioa.FDOutput("FD-P", 1, "bad"),
				ioa.FDOutput("FD-P", 0, "{1}"),
				ioa.FDOutput("FD-P", 0, "{1"),
				ioa.FDOutput("FD-P", 0, "{}"),
			},
			trs: []Transition{
				{Event: 1, Observer: 0, Family: "FD-P", Added: []ioa.Loc{1}},
				{Event: 3, Observer: 0, Family: "FD-P", Removed: []ioa.Loc{1}},
			},
			stats: []Stats{{
				Family: "FD-P", Observers: 1,
				Mistakes:     []Mistake{{Observer: 0, Suspect: 1, Start: 1, End: 3, Steps: 2, Removed: true}},
				MistakeCount: 1, MistakeMeanSteps: 2, MistakeMaxSteps: 2,
			}},
		},
		{
			name: "two families at one location",
			trace: trace.T{
				ioa.Crash(2),
				ioa.FDOutput("FD-P", 0, "{2}"),
				ioa.FDOutput("FD-◇Q", 0, "{2}"),
				ioa.FDOutput("FD-◇Q", 0, "{}"),
				ioa.FDOutput("FD-P", 0, "{2}"),
			},
			trs: []Transition{
				{Event: 1, Observer: 0, Family: "FD-P", Added: []ioa.Loc{2}},
				{Event: 2, Observer: 0, Family: "FD-◇Q", Added: []ioa.Loc{2}},
				{Event: 3, Observer: 0, Family: "FD-◇Q", Removed: []ioa.Loc{2}},
			},
			stats: []Stats{
				{
					Family: "FD-P", Observers: 1,
					Detections:         []Detection{{Observer: 0, Crashed: 2, CrashStep: 0, DetectStep: 1, Steps: 1}},
					DetectionMeanSteps: 1, DetectionMaxSteps: 1,
				},
				{Family: "FD-◇Q", Observers: 1},
			},
		},
		{
			name: "add then remove",
			trace: trace.T{
				ioa.FDOutput("FD-P", 0, "{1,2}"),
				ioa.FDOutput("FD-P", 0, "{2}"),
			},
			trs: []Transition{
				{Event: 0, Observer: 0, Family: "FD-P", Added: []ioa.Loc{1, 2}},
				{Event: 1, Observer: 0, Family: "FD-P", Removed: []ioa.Loc{1}},
			},
			stats: []Stats{{
				Family: "FD-P", Observers: 1,
				Mistakes: []Mistake{
					{Observer: 0, Suspect: 1, Start: 0, End: 1, Steps: 1, Removed: true},
					{Observer: 0, Suspect: 2, Start: 0, End: 2, Steps: 2},
				},
				MistakeCount: 2, MistakeMeanSteps: 1.5, MistakeMaxSteps: 2,
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := (&DAG{Events: tc.trace}).Transitions(); !reflect.DeepEqual(got, tc.trs) {
				t.Errorf("Transitions = %+v, want %+v", got, tc.trs)
			}
			if got := Compute(tc.trace, nil); !reflect.DeepEqual(got, tc.stats) {
				t.Errorf("Compute = %+v, want %+v", got, tc.stats)
			}
		})
	}
}
