package consensus

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/ioa"
	"repro/internal/system"
)

// Message tags of the rotating-coordinator protocol.  Payload grammar:
//
//	E|r|est|ts  – phase 1: estimate (est, ts) sent to round r's coordinator
//	C|r|est     – phase 2: coordinator's proposal for round r
//	A|r         – phase 3: ack to round r's coordinator
//	N|r         – phase 3: nack (coordinator suspected)
//	D|est       – decision broadcast (reliable-broadcast by re-send)
const (
	tagEstimate = "E"
	tagCoord    = "C"
	tagAck      = "A"
	tagNack     = "N"
	tagDecide   = "D"
)

type estTS struct {
	est string
	ts  int
}

// ctRound is the per-round state of one round r ≥ CTMachine.round.  What the
// machine previously kept as four independent map[int]map[ioa.Loc]T maps is
// one flat record: location sets are 64-bit masks and the estimates a dense
// n-slot array, so cloning a machine — which the execution-tree explorer does
// once per node — copies a short slice instead of rebuilding nested maps.
// Per category, presence in the old encoding (an inner map existed for r)
// coincides with the category being non-empty, which the masks and hasC
// preserve exactly.
type ctRound struct {
	r        int
	estMask  uint64  // locations whose phase-1 estimate arrived
	ackMask  uint64  // locations that acked
	nackMask uint64  // locations that nacked
	hasC     bool    // coordinator proposal received
	gotC     string  // the proposal, when hasC
	ests     []estTS // dense n slots, allocated on the first estimate; estMask says which are live
}

// CTMachine is the Chandra-Toueg-style rotating-coordinator consensus
// machine hosted by a process automaton.  Round r's coordinator is location
// (r−1) mod n.  The machine requires a majority of live locations
// (f < ⌈n/2⌉) and a Suspector whose suspicions are eventually accurate and
// complete enough for the detector class used (◇S suffices; P, ◇P and Ω
// adapters all satisfy it).
//
// The machine is purely reactive: every transition is triggered by a
// propose input, a message receipt, or a failure-detector input, and queues
// its sends and decide output through Effects, matching the deterministic
// single-task process automaton of Section 4.2.
type CTMachine struct {
	system.NopMachine
	n    int
	self ioa.Loc
	susp Suspector

	proposed bool
	est      string
	ts       int
	round    int  // current round; 0 before propose
	replied  bool // sent A/N (or self-adopted as coordinator) for round
	sentC    bool // coordinator has sent C for the current round

	// Per-round state for rounds ≥ round (earlier rounds are pruned),
	// ascending by round number.
	rounds []ctRound

	decided    bool
	decidedVal string
}

var _ system.Machine = (*CTMachine)(nil)
var _ ioa.AppendEncoder = (*CTMachine)(nil)

// NewCTMachine returns the consensus machine for location self of n.
// Location sets are bitmasks, so n is capped at 64 (the repository's
// experiments use n ≤ 32).
func NewCTMachine(n int, self ioa.Loc, susp Suspector) *CTMachine {
	if n > 64 {
		panic("consensus: CTMachine supports at most 64 locations")
	}
	return &CTMachine{n: n, self: self, susp: susp}
}

// Round returns the current round (a progress metric for experiments).
func (m *CTMachine) Round() int { return m.round }

// Decided reports whether this location has decided, and on what.
func (m *CTMachine) Decided() (string, bool) { return m.decidedVal, m.decided }

func (m *CTMachine) coord(r int) ioa.Loc { return ioa.Loc((r - 1) % m.n) }

func (m *CTMachine) majority() int { return m.n/2 + 1 }

// findRound returns the record for round r, or nil.
func (m *CTMachine) findRound(r int) *ctRound {
	for i := len(m.rounds) - 1; i >= 0; i-- {
		if m.rounds[i].r == r {
			return &m.rounds[i]
		}
		if m.rounds[i].r < r {
			break
		}
	}
	return nil
}

// roundAt returns the record for round r, inserting an empty one in
// ascending position if absent.  Rounds mostly arrive in order, so the scan
// from the tail is O(1) in steady state.
func (m *CTMachine) roundAt(r int) *ctRound {
	i := len(m.rounds)
	for i > 0 && m.rounds[i-1].r > r {
		i--
	}
	if i > 0 && m.rounds[i-1].r == r {
		return &m.rounds[i-1]
	}
	m.rounds = append(m.rounds, ctRound{})
	copy(m.rounds[i+1:], m.rounds[i:])
	m.rounds[i] = ctRound{r: r}
	return &m.rounds[i]
}

// estsOf returns round rd's dense estimate array, allocating it on first use.
func (m *CTMachine) estsOf(rd *ctRound) []estTS {
	if rd.ests == nil {
		rd.ests = make([]estTS, m.n)
	}
	return rd.ests
}

// OnStart implements system.Machine: nothing happens before propose.
func (m *CTMachine) OnStart(*system.Effects) {}

// OnEnvInput implements system.Machine: propose starts round 1.
func (m *CTMachine) OnEnvInput(name, payload string, e *system.Effects) {
	if name != system.ActNamePropose || m.proposed || m.decided {
		return
	}
	m.proposed = true
	m.est = payload
	m.ts = 0
	m.startRound(1, e)
}

// OnFD implements system.Machine: refresh suspicions, which may unblock the
// phase-3 wait on the current coordinator.
func (m *CTMachine) OnFD(a ioa.Action, e *system.Effects) {
	m.susp.Update(a)
	if m.decided || !m.proposed {
		return
	}
	m.maybeParticipant(e)
}

// OnReceive implements system.Machine.
func (m *CTMachine) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if m.decided {
		return
	}
	parts := strings.Split(msg, "|")
	switch parts[0] {
	case tagDecide:
		if len(parts) == 2 {
			m.decide(parts[1], e)
		}
	case tagEstimate:
		if len(parts) != 4 {
			return
		}
		r, err1 := strconv.Atoi(parts[1])
		ts, err2 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || r < m.round {
			return
		}
		rd := m.roundAt(r)
		m.estsOf(rd)[from] = estTS{est: parts[2], ts: ts}
		rd.estMask |= 1 << uint(from)
		m.maybeCoord(e)
	case tagCoord:
		if len(parts) != 3 {
			return
		}
		r, err := strconv.Atoi(parts[1])
		if err != nil || r < m.round {
			return
		}
		rd := m.roundAt(r)
		rd.gotC = parts[2]
		rd.hasC = true
		m.maybeParticipant(e)
	case tagAck, tagNack:
		if len(parts) != 2 {
			return
		}
		r, err := strconv.Atoi(parts[1])
		if err != nil || r < m.round {
			return
		}
		rd := m.roundAt(r)
		if parts[0] == tagNack {
			rd.nackMask |= 1 << uint(from)
		} else {
			rd.ackMask |= 1 << uint(from)
		}
		m.maybeCoord(e)
	}
}

// startRound enters round r: prune stale per-round state, contribute the
// phase-1 estimate, and run both roles' triggers.
func (m *CTMachine) startRound(r int, e *system.Effects) {
	m.round = r
	m.replied = false
	m.sentC = false
	// Prune rounds < r (ascending order makes this a front trim).
	i := 0
	for i < len(m.rounds) && m.rounds[i].r < r {
		i++
	}
	if i > 0 {
		m.rounds = append(m.rounds[:0], m.rounds[i:]...)
	}
	c := m.coord(r)
	if c == m.self {
		rd := m.roundAt(r)
		m.estsOf(rd)[m.self] = estTS{est: m.est, ts: m.ts}
		rd.estMask |= 1 << uint(m.self)
		m.maybeCoord(e)
	} else {
		e.Send(c, fmt.Sprintf("%s|%d|%s|%d", tagEstimate, r, m.est, m.ts))
		m.maybeParticipant(e)
	}
}

// maybeParticipant runs the phase-3 wait of a non-coordinator: adopt the
// coordinator's proposal and ack, or nack on suspicion; either way advance
// to the next round.
func (m *CTMachine) maybeParticipant(e *system.Effects) {
	if m.decided || !m.proposed || m.replied {
		return
	}
	r := m.round
	c := m.coord(r)
	if c == m.self {
		return // coordinator duties live in maybeCoord
	}
	if rd := m.findRound(r); rd != nil && rd.hasC {
		m.est = rd.gotC
		m.ts = r
		m.replied = true
		e.Send(c, fmt.Sprintf("%s|%d", tagAck, r))
		m.startRound(r+1, e)
		return
	}
	if m.susp.Suspects(c) {
		m.replied = true
		e.Send(c, fmt.Sprintf("%s|%d", tagNack, r))
		m.startRound(r+1, e)
	}
}

// maybeCoord runs the coordinator's phases 2 and 4 for the current round.
func (m *CTMachine) maybeCoord(e *system.Effects) {
	if m.decided || !m.proposed {
		return
	}
	r := m.round
	if m.coord(r) != m.self {
		return
	}
	maj := m.majority()
	rd := m.findRound(r)
	if rd == nil {
		return
	}
	if !m.sentC && bits.OnesCount64(rd.estMask) >= maj {
		// Phase 2: adopt the estimate with the largest timestamp.
		// Deterministic tie-break: among equal timestamps prefer the
		// estimate of the smallest location (ascending mask iteration).
		best := estTS{ts: -1}
		for mask := rd.estMask; mask != 0; mask &= mask - 1 {
			et := rd.ests[bits.TrailingZeros64(mask)]
			if et.ts > best.ts {
				best = et
			}
		}
		m.sentC = true
		m.est = best.est
		m.ts = r
		e.Broadcast(m.n, fmt.Sprintf("%s|%d|%s", tagCoord, r, best.est))
		// The coordinator is its own first participant: adopt and ack.
		m.replied = true
		rd.ackMask |= 1 << uint(m.self)
	}
	if !m.sentC {
		return
	}
	// Phase 4.
	if bits.OnesCount64(rd.ackMask) >= maj {
		m.decide(m.est, e)
		return
	}
	if bits.OnesCount64(rd.ackMask)+bits.OnesCount64(rd.nackMask) >= maj {
		m.startRound(r+1, e)
	}
}

// decide performs the reliable decision broadcast: re-broadcast D before
// emitting the decide output, so any live receiver propagates the decision
// even if this location crashes mid-broadcast.
func (m *CTMachine) decide(v string, e *system.Effects) {
	if m.decided {
		return
	}
	m.decided = true
	m.decidedVal = v
	m.est = v
	e.Broadcast(m.n, fmt.Sprintf("%s|%s", tagDecide, v))
	e.Output(system.ActNameDecide, v)
}

// Clone implements system.Machine.
func (m *CTMachine) Clone() system.Machine {
	c := &CTMachine{
		n: m.n, self: m.self, susp: m.susp.Clone(),
		proposed: m.proposed, est: m.est, ts: m.ts,
		round: m.round, replied: m.replied, sentC: m.sentC,
		decided: m.decided, decidedVal: m.decidedVal,
	}
	if len(m.rounds) > 0 {
		c.rounds = make([]ctRound, len(m.rounds))
		copy(c.rounds, m.rounds)
		for i := range c.rounds {
			if c.rounds[i].ests != nil {
				c.rounds[i].ests = append([]estTS(nil), c.rounds[i].ests...)
			}
		}
	}
	return c
}

// Encode implements system.Machine.
func (m *CTMachine) Encode() string { return string(m.AppendEncode(nil)) }

// AppendEncode implements ioa.AppendEncoder: exactly Encode()'s bytes,
// appended without the fmt round-trips — the execution-tree explorer encodes
// every cloned machine once per node, so this is a fingerprinting hot path.
func (m *CTMachine) AppendEncode(dst []byte) []byte {
	dst = append(dst, "CT"...)
	dst = appendLoc(dst, m.self)
	dst = append(dst, "|p"...)
	dst = strconv.AppendBool(dst, m.proposed)
	dst = append(dst, "|e"...)
	dst = append(dst, m.est...)
	dst = append(dst, "|t"...)
	dst = strconv.AppendInt(dst, int64(m.ts), 10)
	dst = append(dst, "|r"...)
	dst = strconv.AppendInt(dst, int64(m.round), 10)
	dst = append(dst, "|rp"...)
	dst = strconv.AppendBool(dst, m.replied)
	dst = append(dst, "|sc"...)
	dst = strconv.AppendBool(dst, m.sentC)
	dst = append(dst, "|d"...)
	dst = strconv.AppendBool(dst, m.decided)
	dst = append(dst, ':')
	dst = append(dst, m.decidedVal...)
	dst = append(dst, '|')
	dst = appendSusp(dst, m.susp)
	dst = append(dst, "|E"...)
	for i := range m.rounds {
		rd := &m.rounds[i]
		if rd.estMask == 0 {
			continue
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(rd.r), 10)
		dst = append(dst, ':')
		for mask := rd.estMask; mask != 0; mask &= mask - 1 {
			l := bits.TrailingZeros64(mask)
			et := &rd.ests[l]
			dst = strconv.AppendInt(dst, int64(l), 10)
			dst = append(dst, '=')
			dst = append(dst, et.est...)
			dst = append(dst, '/')
			dst = strconv.AppendInt(dst, int64(et.ts), 10)
			dst = append(dst, ';')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, "|A"...)
	dst = m.appendMaskRounds(dst, func(rd *ctRound) uint64 { return rd.ackMask })
	dst = append(dst, "|N"...)
	dst = m.appendMaskRounds(dst, func(rd *ctRound) uint64 { return rd.nackMask })
	dst = append(dst, "|C"...)
	for i := range m.rounds {
		rd := &m.rounds[i]
		if !rd.hasC {
			continue
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(rd.r), 10)
		dst = append(dst, ':')
		dst = append(dst, rd.gotC...)
		dst = append(dst, ']')
	}
	return dst
}

// appendMaskRounds appends "[r:{...}]" for every round whose selected mask
// is non-empty, in ascending round order.
func (m *CTMachine) appendMaskRounds(dst []byte, sel func(*ctRound) uint64) []byte {
	for i := range m.rounds {
		rd := &m.rounds[i]
		mask := sel(rd)
		if mask == 0 {
			continue
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(rd.r), 10)
		dst = append(dst, ':')
		dst = ioa.MaskLocSet(mask).AppendEncode(dst)
		dst = append(dst, ']')
	}
	return dst
}
