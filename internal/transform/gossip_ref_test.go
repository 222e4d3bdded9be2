package transform

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/system"
)

// refGossip is the map-based gossip machine the decoded-set one replaced:
// it keeps only the latest payload strings and decodes all of them into a
// map union on every FD input.  It is kept as the reference the
// gossipMachine is compared against.
type refGossip struct {
	cfg    Gossip
	n      int
	self   ioa.Loc
	latest []string
}

func (m *refGossip) OnFD(a ioa.Action, e *system.Effects) {
	if m.latest[m.self] != a.Payload {
		m.latest[m.self] = a.Payload
		if m.cfg.Forward {
			e.Broadcast(m.n, tagOrigin(m.self, a.Payload))
		} else {
			e.Broadcast(m.n, a.Payload)
		}
	}
	union := make(map[ioa.Loc]bool)
	for _, p := range m.latest {
		if p == "" {
			continue
		}
		set, err := ioa.DecodeLocSet(p)
		if err != nil {
			continue
		}
		for l := range set {
			union[l] = true
		}
	}
	e.OutputFD(m.cfg.To, ioa.EncodeLocSet(union))
}

func (m *refGossip) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if !m.cfg.Forward {
		m.latest[from] = msg
		return
	}
	origin, payload, err := splitOrigin(msg)
	if err != nil || origin == m.self {
		return
	}
	recv, err := ioa.DecodeLocSet(payload)
	if err != nil || len(recv) == 0 {
		return
	}
	have := map[ioa.Loc]bool{}
	if m.latest[origin] != "" {
		if have, err = ioa.DecodeLocSet(m.latest[origin]); err != nil {
			have = map[ioa.Loc]bool{}
		}
	}
	grew := false
	for l := range recv {
		if !have[l] {
			have[l] = true
			grew = true
		}
	}
	if grew {
		m.latest[origin] = ioa.EncodeLocSet(have)
		e.Broadcast(m.n, tagOrigin(origin, m.latest[origin]))
	}
}

// gossipPayloads are the suspicion payloads fed to both machines: sets in
// and past the 64-bit mask, duplicates, and malformed strings.
var gossipPayloads = []string{"{}", "{0}", "{1}", "{0,2}", "{1,1}", "{-1}", "{64}", "{2,70}", "{0,1,2,3}", "garbage", "{0,,1}"}

// TestGossipMatchesReference drives the gossip machine and the map-based
// reference through the same random FD inputs and receipts, in plain and
// Forward mode, and requires the same effects — broadcasts and emitted
// unions — after every step, the same Encode, and clones that stay
// independent of the original.
func TestGossipMatchesReference(t *testing.T) {
	const n = 4
	for _, forward := range []bool{false, true} {
		t.Run(fmt.Sprintf("forward=%t", forward), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			g := Gossip{From: "FD-◇Q", To: "FD-◇P", Forward: forward}
			for run := 0; run < 50; run++ {
				self := ioa.Loc(rng.Intn(n))
				m := &gossipMachine{cfg: g, n: n, self: self, latest: make([]string, n), sets: make([]ioa.LocSet, n)}
				ref := &refGossip{cfg: g, n: n, self: self, latest: make([]string, n)}
				var clone *gossipMachine
				for step := 0; step < 60; step++ {
					got, want := system.NewEffects(self), system.NewEffects(self)
					payload := gossipPayloads[rng.Intn(len(gossipPayloads))]
					if rng.Intn(3) == 0 {
						a := ioa.FDOutput(g.From, self, payload)
						m.OnFD(a, got)
						ref.OnFD(a, want)
					} else {
						from := ioa.Loc(rng.Intn(n))
						msg := payload
						if forward {
							switch rng.Intn(6) {
							case 0:
								msg = "x|" + payload // malformed origin
							case 1:
								// untagged
							default:
								msg = tagOrigin(ioa.Loc(rng.Intn(n)), payload)
							}
						}
						m.OnReceive(from, msg, got)
						ref.OnReceive(from, msg, want)
					}
					if g, w := fmt.Sprint(got.Pending()), fmt.Sprint(want.Pending()); g != w {
						t.Fatalf("run %d step %d: effects\n got %s\nwant %s", run, step, g, w)
					}
					if step == 30 {
						clone = m.Clone().(*gossipMachine)
					}
				}
				if got, want := m.Encode(), fmt.Sprintf("GS%v|%s", self, strings.Join(ref.latest, "\x1f")); got != want {
					t.Fatalf("run %d: Encode = %q, want %q", run, got, want)
				}
				// The clone, taken mid-run, must emit the union of its
				// own state, not of the original's later updates.
				e := system.NewEffects(self)
				clone.emit(e)
				want := &refGossip{cfg: g, n: n, self: self, latest: clone.latest}
				we := system.NewEffects(self)
				want.OnFD(ioa.FDOutput(g.From, self, clone.latest[self]), we)
				if got, w := e.Pending()[0], we.Pending()[len(we.Pending())-1]; got != w {
					t.Fatalf("run %d: clone emits %v, want %v", run, got, w)
				}
			}
		})
	}
}
