// Package transform implements distributed algorithms that solve one AFD
// using another, realizing the ⪰ relation of Sections 5.4–7 of
// "Asynchronous Failure Detectors" as executable reductions:
//
//   - Local transforms map each input-detector output event at a location to
//     one output event of the target detector at the same location (a
//     one-automaton-per-location distributed algorithm with no messages);
//   - Gossip boosts weak completeness to strong completeness by exchanging
//     suspicion sets over the reliable FIFO channels (the message-passing
//     construction of Chandra-Toueg, recast as process automata);
//   - Chains compose reductions, making Theorem 15 (transitivity of ⪰)
//     executable.
package transform

import (
	"fmt"
	"strings"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/system"
)

// Local is a stateless per-location reduction: every output d of the From
// family at location i triggers one output F(d) of the To family at i.
// Validity of the target is inherited: live locations receive infinitely
// many From outputs, hence emit infinitely many To outputs, and crashes
// disable the hosting process automaton.
type Local struct {
	// Name identifies the reduction (for diagnostics and benchmarks).
	Name string
	// From and To are the input and output detector families.
	From, To string
	// F maps an input payload to the output payload; n is the number of
	// locations.
	F func(n int, payload string) (string, error)
}

// Procs returns the distributed algorithm: one process automaton per
// location hosting the reduction machine.
func (l Local) Procs(n int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		m := &localMachine{cfg: l, n: n}
		out[i] = system.NewProc("xform:"+l.Name, ioa.Loc(i), n, m, []string{l.From}, nil)
	}
	return out
}

type localMachine struct {
	system.NopMachine
	cfg  Local
	n    int
	errs int
}

func (m *localMachine) OnFD(a ioa.Action, e *system.Effects) {
	p, err := m.cfg.F(m.n, a.Payload)
	if err != nil {
		// A malformed input payload means the input trace was not
		// admissible for the From detector; the reduction's obligation
		// is vacuous (Section 5.2), so drop the event but remember it.
		m.errs++
		return
	}
	e.OutputFD(m.cfg.To, p)
}

func (m *localMachine) Clone() system.Machine {
	c := *m
	return &c
}

func (m *localMachine) Encode() string { return fmt.Sprintf("L:%s:%d", m.cfg.Name, m.errs) }

// suspicionToLeader maps a suspicion-set payload to the minimum unsuspected
// location — the extraction of Ω from (eventually) accurate+complete
// suspicion lists.
func suspicionToLeader(n int, payload string) (string, error) {
	set, err := ioa.ParseLocSet(payload)
	if err != nil {
		return "", err
	}
	for i := 0; i < n; i++ {
		if !set.Has(ioa.Loc(i)) {
			return ioa.EncodeLoc(ioa.Loc(i)), nil
		}
	}
	// Everyone suspected: emit location 0; this can only happen in the
	// unstabilized prefix, which Ω admissibility does not constrain.
	return ioa.EncodeLoc(0), nil
}

// identity forwards the payload unchanged (weakening reductions: a detector
// is trivially sufficient for any detector with a weaker specification over
// the same outputs, modulo renaming).
func identity(_ int, payload string) (string, error) { return payload, nil }

// Catalog returns the named local reductions used by the hierarchy
// experiments (E6).  Each is a genuine ⪰ witness: target-checker tests
// verify the produced traces.
func Catalog() []Local {
	return []Local{
		{Name: "P→◇P", From: afd.FamilyP, To: afd.FamilyEvP, F: identity},
		{Name: "P→S", From: afd.FamilyP, To: afd.FamilyS, F: identity},
		{Name: "P→Q", From: afd.FamilyP, To: afd.FamilyQ, F: identity},
		{Name: "S→◇S", From: afd.FamilyS, To: afd.FamilyEvS, F: identity},
		{Name: "◇P→◇S", From: afd.FamilyEvP, To: afd.FamilyEvS, F: identity},
		{Name: "◇P→◇Q", From: afd.FamilyEvP, To: afd.FamilyEvQ, F: identity},
		{Name: "◇S→◇W", From: afd.FamilyEvS, To: afd.FamilyEvW, F: identity},
		{Name: "S→W", From: afd.FamilyS, To: afd.FamilyW, F: identity},
		{Name: "P→Ω", From: afd.FamilyP, To: afd.FamilyOmega, F: suspicionToLeader},
		{Name: "◇P→Ω", From: afd.FamilyEvP, To: afd.FamilyOmega, F: suspicionToLeader},
		{Name: "P→Σ", From: afd.FamilyP, To: afd.FamilySigma, F: func(n int, payload string) (string, error) {
			set, err := ioa.ParseLocSet(payload)
			if err != nil {
				return "", err
			}
			var quorum ioa.LocSet
			for i := 0; i < n; i++ {
				if !set.Has(ioa.Loc(i)) {
					quorum.Add(ioa.Loc(i))
				}
			}
			return string(quorum.AppendEncode(nil)), nil
		}},
		{Name: "Ω→antiΩ", From: afd.FamilyOmega, To: afd.FamilyAntiOmega, F: func(n int, payload string) (string, error) {
			l, err := ioa.DecodeLoc(payload)
			if err != nil {
				return "", err
			}
			return ioa.EncodeLoc(ioa.Loc((int(l) + 1) % n)), nil
		}},
		{Name: "Q→W", From: afd.FamilyQ, To: afd.FamilyW, F: identity},
		{Name: "◇Q→◇W", From: afd.FamilyEvQ, To: afd.FamilyEvW, F: identity},
		// Ωk's stabilized set contains a live location; avoiding the set
		// therefore eventually never outputs that live location — anti-Ω.
		{Name: "Ωk→antiΩ", From: afd.FamilyOmegaK, To: afd.FamilyAntiOmega, F: func(n int, payload string) (string, error) {
			set, err := ioa.ParseLocSet(payload)
			if err != nil {
				return "", err
			}
			for i := 0; i < n; i++ {
				if !set.Has(ioa.Loc(i)) {
					return ioa.EncodeLoc(ioa.Loc(i)), nil
				}
			}
			// The set covers Π (only possible when k = n); emit 0 — the
			// anti-Ω obligation is then unsatisfiable for any algorithm,
			// so this reduction is declared for k < n.
			return ioa.EncodeLoc(0), nil
		}},
	}
}

// OmegaToOmegaK returns the Ω→Ωk reduction: the output set is the leader
// plus the k−1 smallest other locations, a deterministic, eventually
// constant k-set containing a live location.
func OmegaToOmegaK(k int) Local {
	return Local{
		Name: fmt.Sprintf("Ω→Ω%d", k),
		From: afd.FamilyOmega,
		To:   afd.FamilyOmegaK,
		F: func(n int, payload string) (string, error) {
			l, err := ioa.DecodeLoc(payload)
			if err != nil {
				return "", err
			}
			set := map[ioa.Loc]bool{l: true}
			for i := 0; i < n && len(set) < k; i++ {
				set[ioa.Loc(i)] = true
			}
			return ioa.EncodeLocSet(set), nil
		},
	}
}

// PToPsiK returns the P→Ψk reduction: quorum = complement of the suspicion
// set, k-set = leader extraction padded to k locations.
func PToPsiK(k int) Local {
	return Local{
		Name: fmt.Sprintf("P→Ψ%d", k),
		From: afd.FamilyP,
		To:   afd.FamilyPsiK,
		F: func(n int, payload string) (string, error) {
			set, err := ioa.ParseLocSet(payload)
			if err != nil {
				return "", err
			}
			var quorum, kset ioa.LocSet
			for i := 0; i < n; i++ {
				if !set.Has(ioa.Loc(i)) {
					quorum.Add(ioa.Loc(i))
					if kset.Len() < k {
						kset.Add(ioa.Loc(i))
					}
				}
			}
			for i := 0; i < n && kset.Len() < k; i++ {
				kset.Add(ioa.Loc(i))
			}
			return string(kset.AppendEncode(append(quorum.AppendEncode(nil), ';'))), nil
		},
	}
}

// Gossip is the message-passing completeness-boosting reduction: each
// location rebroadcasts its latest From-family suspicion set; a location's
// To-family output is the union of the *latest* set from every location
// (including itself).  Keeping only the latest set per sender preserves
// eventual accuracy (stale suspicions are superseded), while the union
// upgrades weak completeness to strong completeness — so W→S-shaped and
// ◇W→◇S-shaped reductions become executable with real channel traffic.
type Gossip struct {
	From, To string
	// Forward selects relay mode for degraded networks: messages carry
	// their origin ("origin|set") and a location that learns new members
	// for an origin's set rebroadcasts the improved set, flooding state
	// across multi-hop topologies.  Merges are monotone unions — a copy
	// can only add members to the stored set — so duplicated, reordered,
	// or multi-path-raced copies cannot regress state (a last-write-wins
	// relay would let a stale set overwrite a fresher one).  Sound because
	// the source families gossip boosts emit monotone crash sets.  Each
	// origin's stored set grows at most n times, so relay traffic is
	// bounded and the flood quiesces.
	Forward bool
}

// Procs returns the gossip distributed algorithm for n locations.
func (g Gossip) Procs(n int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		m := &gossipMachine{cfg: g, n: n, self: ioa.Loc(i), latest: make([]string, n), sets: make([]ioa.LocSet, n)}
		out[i] = system.NewProc("gossip:"+g.From+"→"+g.To, ioa.Loc(i), n, m, []string{g.From}, nil)
	}
	return out
}

type gossipMachine struct {
	system.NopMachine
	cfg    Gossip
	n      int
	self   ioa.Loc
	latest []string // latest suspicion payload per sender; "" = none yet
	// sets[j] is latest[j] decoded, updated only when latest[j] changes;
	// "" and malformed payloads decode to ∅, adding nothing to the union.
	sets []ioa.LocSet
}

// setLatest records sender j's latest payload and its decoded set.
func (m *gossipMachine) setLatest(j ioa.Loc, payload string) {
	m.latest[j] = payload
	m.sets[j], _ = ioa.ParseLocSet(payload) // ∅ when malformed
}

func (m *gossipMachine) OnFD(a ioa.Action, e *system.Effects) {
	// Rebroadcast only on change: a location receives one FD input per
	// fair-schedule cycle but its single task fires only one queued action
	// per cycle, so an unconditional broadcast would grow the outbox
	// without bound and the emitted unions would lag arbitrarily far
	// behind the received state.  Suspicion payloads change finitely often
	// (they are driven by the finitely many crash events), so conditional
	// rebroadcast keeps the queue bounded while still propagating every
	// change to every live location.
	if m.latest[m.self] != a.Payload {
		m.setLatest(m.self, a.Payload)
		if m.cfg.Forward {
			e.Broadcast(m.n, tagOrigin(m.self, a.Payload))
		} else {
			e.Broadcast(m.n, a.Payload)
		}
	}
	m.emit(e)
}

func (m *gossipMachine) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if !m.cfg.Forward {
		// Update only; the next FD input emits the refreshed union.  Live
		// locations receive FD inputs forever, so outputs remain infinite.
		if m.latest[from] != msg {
			m.setLatest(from, msg)
		}
		return
	}
	origin, payload, err := splitOrigin(msg)
	if err != nil || origin == m.self {
		// Malformed relays are dropped (vacuous obligation, as for
		// malformed FD inputs); copies of our own set are already
		// subsumed by the authoritative local state.
		return
	}
	// Merge the received set into the stored one (monotone union); a
	// malformed or member-free copy adds nothing, so it is not adopted.
	recv, err := ioa.ParseLocSet(payload)
	if err != nil {
		return
	}
	if merged := m.sets[origin].Union(recv); merged.Len() > m.sets[origin].Len() {
		m.latest[origin], m.sets[origin] = string(merged.AppendEncode(nil)), merged
		e.Broadcast(m.n, tagOrigin(origin, m.latest[origin]))
	}
}

// tagOrigin wraps a relay payload with the location whose set it carries.
func tagOrigin(origin ioa.Loc, payload string) string {
	return ioa.EncodeLoc(origin) + "|" + payload
}

// splitOrigin undoes tagOrigin.
func splitOrigin(msg string) (ioa.Loc, string, error) {
	i := strings.IndexByte(msg, '|')
	if i < 0 {
		return 0, "", fmt.Errorf("transform: untagged relay message %q", msg)
	}
	origin, err := ioa.DecodeLoc(msg[:i])
	return origin, msg[i+1:], err
}

// emit outputs the union of every sender's latest set.
func (m *gossipMachine) emit(e *system.Effects) {
	var union ioa.LocSet
	for _, set := range m.sets {
		union = union.Union(set)
	}
	var buf [256]byte
	e.OutputFD(m.cfg.To, string(union.AppendEncode(buf[:0])))
}

func (m *gossipMachine) Clone() system.Machine {
	c := *m
	c.latest = append([]string(nil), m.latest...)
	c.sets = append([]ioa.LocSet(nil), m.sets...)
	return &c
}

func (m *gossipMachine) Encode() string {
	return fmt.Sprintf("GS%v|%s", m.self, strings.Join(m.latest, "\x1f"))
}

// Chain composes local reductions end to end (Theorem 15): the output family
// of each stage is the input family of the next.  Procs returns all stages'
// automata; the intermediate families remain visible in the trace, which is
// harmless (hiding is a relabeling the projection-based checkers never see).
type Chain []Local

// Validate checks that the stages compose.
func (c Chain) Validate() error {
	for i := 1; i < len(c); i++ {
		if c[i].From != c[i-1].To {
			return fmt.Errorf("transform: stage %d consumes %s but stage %d produces %s",
				i, c[i].From, i-1, c[i-1].To)
		}
	}
	return nil
}

// Procs returns the composed distributed algorithm.
func (c Chain) Procs(n int) ([]ioa.Automaton, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var out []ioa.Automaton
	for si, stage := range c {
		// Stage labels must be unique per composition even if the same
		// reduction appears twice.
		stage.Name = fmt.Sprintf("%d:%s", si, stage.Name)
		out = append(out, stage.Procs(n)...)
	}
	return out, nil
}

// Names returns the stage names joined for reporting.
func (c Chain) Names() string {
	names := make([]string, len(c))
	for i, s := range c {
		names[i] = s.Name
	}
	return strings.Join(names, " ∘ ")
}
