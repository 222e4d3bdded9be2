package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/trace"
)

// TestEquivalence is the self-test the traced run gates on: the
// decomposition of chaos.Execute is byte-identical to it for every target ×
// scheduler of sweep-n3 (lifo and gated runs included) and scale-n32.
func TestEquivalence(t *testing.T) {
	cover := coverRuns(sweepRuns(1))
	gated, lifo := 0, 0
	for _, r := range cover {
		if !r.Gates.IsZero() {
			gated++
		}
		if r.Sched == chaos.SchedLIFO {
			lifo++
		}
	}
	if len(cover) != 18 || gated == 0 || lifo == 0 {
		t.Fatalf("cover has %d runs, %d gated, %d lifo; want every target × scheduler gated and ungated", len(cover), gated, lifo)
	}
	if !testing.Short() {
		for i := range scaleTargets {
			r, err := scaleRun(1, i)
			if err != nil {
				t.Fatal(err)
			}
			cover = append(cover, r)
		}
	}
	if err := equivalent(cover, decomposed); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceDetectsDifference is the self-test's negative control: a
// decomposition that runs another seed must be caught.
func TestEquivalenceDetectsDifference(t *testing.T) {
	runs := coverRuns(sweepRuns(1))
	wrong := func(r chaos.Run) (chaos.Verdict, error) {
		r.Seed++
		v, err := decomposed(r)
		v.Run.Seed--
		return v, err
	}
	for _, r := range runs {
		if r.Sched == chaos.SchedRandom {
			if err := equivalent([]chaos.Run{r}, wrong); err == nil {
				t.Fatalf("%s: a decomposition with another seed passed the self-test", describe(r))
			}
			return
		}
	}
	t.Fatal("no random-scheduler run in the cover")
}

// tamper alters the payload of the first event of kind k in the artifact a
// and re-encodes it.
func tamper(t *testing.T, a *trace.Artifact, k ioa.Kind) []byte {
	t.Helper()
	for i, act := range a.Trace {
		if act.Kind == k {
			a.Trace[i].Payload = act.Payload + "-forged"
			data, err := encodeArtifact(a)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	t.Fatalf("artifact has no %v event", k)
	return nil
}

// TestTamperedArtifactFailsSweep is the sweep-n3 negative control: an
// artifact with one recorded payload altered fails the read half of the
// cell (the cross-engine replay rejects it), while the intact one passes.
func TestTamperedArtifactFailsSweep(t *testing.T) {
	for _, r := range coverRuns(sweepRuns(1)) {
		if _, ok := r.Target.(chaos.DetectorTarget); !ok || len(r.Plan.Crash) == 0 {
			continue
		}
		v, err := chaos.Execute(r)
		if err != nil {
			t.Fatal(err)
		}
		data, err := encodeArtifact(v.Artifact())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := certify(data, nil); err != nil {
			t.Fatalf("intact artifact rejected: %v", err)
		}
		if _, err := certify(tamper(t, v.Artifact(), ioa.KindFD), nil); err == nil {
			t.Fatal("artifact with an altered FD payload was certified")
		}
		return
	}
	t.Fatal("no detector run with a crash in the cover")
}

// TestTamperedArtifactFailsExplain is the explain-n32 negative control: an
// artifact with one delivered payload altered fails the explain cell; the
// intact records pass, the URB one with its recorded rejection.
func TestTamperedArtifactFailsExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("n=32 records")
	}
	recs, err := explainSetup(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		s, verified, _ := explainCell(rec.data, nil)
		if s.err != nil || verified == 0 {
			t.Fatalf("%s: intact record failed (verified edges %d): %v", explainTargets[i], verified, s.err)
		}
		t.Logf("%s: %d events, checker rejected: %v", explainTargets[i], s.events, rec.rejected)
	}
	a, err := trace.ReadArtifact(strings.NewReader(string(recs[2].data)))
	if err != nil {
		t.Fatal(err)
	}
	if s, _, _ := explainCell(tamper(t, a, ioa.KindReceive), nil); s.err == nil {
		t.Fatal("explain cell accepted an artifact with an altered delivery payload")
	} else {
		t.Logf("tampered record failed: %v", s.err)
	}
}

// TestExplorePinMismatchFails is explore-n3's negative control: one round
// reproduces every pin, and the same counts judged against a pin that
// differs fail the cell.
func TestExplorePinMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("n=3 exploration")
	}
	wrong := explorePins
	wrong.redEdges++
	s, got := exploreRound(wrong, nil, nil)
	if got != explorePins {
		t.Fatalf("explorer counts %+v, pinned %+v", got, explorePins)
	}
	if s.err == nil || !strings.Contains(s.err.Error(), "reduced edges") {
		t.Fatalf("a round judged against a wrong pin did not fail: %v", s.err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.what, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
