package consensus

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ioa"
	"repro/internal/system"
)

// smRound is the per-round state of one phase-1 round: the senders heard
// (gotMask) and the early messages not yet absorbed (pendMask + dense value
// sets).  Like ctRound it replaces nested maps with flat records so the
// explorer's per-node Clone is a couple of slice copies.  gotSeen tracks
// that advance() touched the round — the old representation kept an empty
// senders map in that case, and the encoding renders it as "[r:{}]".
type smRound struct {
	r        int
	gotSeen  bool
	gotMask  uint64
	pendMask uint64
	pend     []string // dense n slots; pendMask says which are live
}

// SMachine is the Chandra-Toueg algorithm that solves consensus using any
// detector with perpetual weak accuracy and strong completeness (the class
// S; P ⊆ S), tolerating f ≤ n−1 crashes — the second consensus algorithm of
// [5], recast as a reactive process automaton:
//
//	Phase 1: asynchronous rounds r = 1..n−1; in round r broadcast the
//	         current value set and wait, for every other location q, for
//	         q's round-r message or q ∈ suspected;
//	Phase 2: broadcast the final value set; wait for each q's phase-2 set
//	         or suspicion; replace the value set by the intersection of
//	         all phase-2 sets received (including one's own);
//	Phase 3: decide min of the remaining values.
//
// Unlike the rotating-coordinator CTMachine it has no round churn: every
// location performs exactly n broadcasts, which keeps the reachable state
// space finite under a fixed failure-detector sequence — the property the
// Section-8 execution-tree experiments need.
//
// Correctness requires perpetual weak accuracy: a ◇-class suspector may
// suspect a live location whose messages are still needed.  Use it with P
// or S only.
type SMachine struct {
	system.NopMachine
	n    int
	self ioa.Loc
	susp Suspector

	proposed bool
	vals     []string // V_p, sorted distinct values
	round    int      // current phase-1 round; n..: phase 2; 0: idle
	phase2   bool

	rounds []smRound // ascending by round number; never pruned
	p2Mask uint64    // phase-2 senders heard
	p2     []string  // dense n slots; p2Mask says which are live
	p2Sent bool

	decided    bool
	decidedVal string
}

var _ system.Machine = (*SMachine)(nil)
var _ ioa.AppendEncoder = (*SMachine)(nil)

// NewSMachine returns the S-based consensus machine for location self of n.
// Location sets are bitmasks, so n is capped at 64 (the repository's
// experiments use n ≤ 32).
func NewSMachine(n int, self ioa.Loc, susp Suspector) *SMachine {
	if n > 64 {
		panic("consensus: SMachine supports at most 64 locations")
	}
	return &SMachine{n: n, self: self, susp: susp}
}

// Decided reports the decision, if any.
func (m *SMachine) Decided() (string, bool) { return m.decidedVal, m.decided }

// CanSend implements ioa.SendProspector: every Broadcast call site is
// reachable only before the phase-2 set goes out (OnEnvInput requires
// !proposed, advance's phase-1 arm requires !phase2, and enterPhase2 runs
// once), so after p2Sent no input sequence can make the machine emit another
// send.  deciding only outputs.
func (m *SMachine) CanSend() bool { return !m.p2Sent }

// Round returns the current phase-1 round (n−1+1 once in phase 2).
func (m *SMachine) Round() int { return m.round }

// findRound returns the record for round r, or nil.
func (m *SMachine) findRound(r int) *smRound {
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
// ascending position if absent.
func (m *SMachine) roundAt(r int) *smRound {
	i := len(m.rounds)
	for i > 0 && m.rounds[i-1].r > r {
		i--
	}
	if i > 0 && m.rounds[i-1].r == r {
		return &m.rounds[i-1]
	}
	m.rounds = append(m.rounds, smRound{})
	copy(m.rounds[i+1:], m.rounds[i:])
	m.rounds[i] = smRound{r: r}
	return &m.rounds[i]
}

// addVal inserts v into the sorted distinct value set.
func (m *SMachine) addVal(v string) {
	i := sort.SearchStrings(m.vals, v)
	if i < len(m.vals) && m.vals[i] == v {
		return
	}
	m.vals = append(m.vals, "")
	copy(m.vals[i+1:], m.vals[i:])
	m.vals[i] = v
}

// OnEnvInput implements system.Machine.
func (m *SMachine) OnEnvInput(name, payload string, e *system.Effects) {
	if name != system.ActNamePropose || m.proposed || m.decided {
		return
	}
	m.proposed = true
	m.addVal(payload)
	m.round = 1
	if m.n == 1 {
		m.enterPhase2(e)
		return
	}
	e.Broadcast(m.n, m.roundMsg(1))
	m.advance(e)
}

// OnFD implements system.Machine.
func (m *SMachine) OnFD(a ioa.Action, e *system.Effects) {
	m.susp.Update(a)
	if m.proposed && !m.decided {
		m.advance(e)
	}
}

// OnReceive implements system.Machine.
func (m *SMachine) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if m.decided {
		return
	}
	parts := strings.SplitN(msg, "|", 3)
	switch parts[0] {
	case "R":
		if len(parts) != 3 {
			return
		}
		r, err := strconv.Atoi(parts[1])
		if err != nil {
			return
		}
		rd := m.roundAt(r)
		if rd.pend == nil {
			rd.pend = make([]string, m.n)
		}
		rd.pend[from] = parts[2]
		rd.pendMask |= 1 << uint(from)
	case "S2":
		if len(parts) != 2 {
			return
		}
		if m.p2 == nil {
			m.p2 = make([]string, m.n)
		}
		m.p2[from] = parts[1]
		m.p2Mask |= 1 << uint(from)
	default:
		return
	}
	if m.proposed {
		m.advance(e)
	}
}

// advance absorbs pending messages for the current round and moves through
// the phases as far as the wait conditions allow.
func (m *SMachine) advance(e *system.Effects) {
	for !m.decided {
		if m.phase2 {
			if !m.phase2Satisfied() {
				return
			}
			m.finish(e)
			return
		}
		// Phase 1, round m.round: absorb that round's messages.
		r := m.round
		rd := m.roundAt(r)
		rd.gotSeen = true
		if rd.pendMask != 0 {
			for mask := rd.pendMask; mask != 0; mask &= mask - 1 {
				l := bits.TrailingZeros64(mask)
				m.mergeVals(rd.pend[l])
				rd.gotMask |= 1 << uint(l)
			}
			rd.pendMask = 0
			rd.pend = nil
		}
		if !m.roundSatisfied(rd) {
			return
		}
		if r < m.n-1 {
			m.round = r + 1
			e.Broadcast(m.n, m.roundMsg(m.round))
			continue
		}
		m.enterPhase2(e)
	}
}

func (m *SMachine) roundSatisfied(rd *smRound) bool {
	for q := 0; q < m.n; q++ {
		l := ioa.Loc(q)
		if l == m.self {
			continue
		}
		if rd.gotMask&(1<<uint(q)) == 0 && !m.susp.Suspects(l) {
			return false
		}
	}
	return true
}

func (m *SMachine) phase2Satisfied() bool {
	for q := 0; q < m.n; q++ {
		l := ioa.Loc(q)
		if l == m.self {
			continue
		}
		if m.p2Mask&(1<<uint(q)) == 0 && !m.susp.Suspects(l) {
			return false
		}
	}
	return true
}

func (m *SMachine) enterPhase2(e *system.Effects) {
	m.phase2 = true
	m.round = m.n
	m.p2Sent = true
	if m.n > 1 {
		e.Broadcast(m.n, "S2|"+m.encodeVals())
	}
	if m.phase2Satisfied() {
		m.finish(e)
	}
}

// finish intersects the phase-2 sets and decides the minimum value.
func (m *SMachine) finish(e *system.Effects) {
	inter := make(map[string]bool, len(m.vals))
	for _, v := range m.vals {
		inter[v] = true
	}
	for mask := m.p2Mask; mask != 0; mask &= mask - 1 {
		set := decodeVals(m.p2[bits.TrailingZeros64(mask)])
		next := make(map[string]bool)
		for v := range inter {
			if set[v] {
				next[v] = true
			}
		}
		inter = next
	}
	// The intersection always contains the never-suspected location's
	// values (weak accuracy), hence is non-empty; guard anyway so a spec
	// violation surfaces as a missing decision, not a panic.
	if len(inter) == 0 {
		return
	}
	min := ""
	for v := range inter {
		if min == "" || v < min {
			min = v
		}
	}
	m.decided = true
	m.decidedVal = min
	e.Output(system.ActNameDecide, min)
}

func (m *SMachine) mergeVals(enc string) {
	if enc == "" {
		return
	}
	for {
		i := strings.IndexByte(enc, ',')
		if i < 0 {
			m.addVal(enc)
			return
		}
		m.addVal(enc[:i])
		enc = enc[i+1:]
	}
}

func (m *SMachine) roundMsg(r int) string {
	return fmt.Sprintf("R|%d|%s", r, m.encodeVals())
}

func (m *SMachine) encodeVals() string { return strings.Join(m.vals, ",") }

func decodeVals(enc string) map[string]bool {
	out := make(map[string]bool)
	if enc == "" {
		return out
	}
	for _, v := range strings.Split(enc, ",") {
		out[v] = true
	}
	return out
}

// Clone implements system.Machine.
func (m *SMachine) Clone() system.Machine {
	c := &SMachine{
		n: m.n, self: m.self, susp: m.susp.Clone(),
		proposed: m.proposed, round: m.round, phase2: m.phase2,
		p2Mask: m.p2Mask, p2Sent: m.p2Sent,
		decided: m.decided, decidedVal: m.decidedVal,
	}
	if len(m.vals) > 0 {
		c.vals = append([]string(nil), m.vals...)
	}
	if len(m.rounds) > 0 {
		c.rounds = make([]smRound, len(m.rounds))
		copy(c.rounds, m.rounds)
		for i := range c.rounds {
			if c.rounds[i].pend != nil {
				c.rounds[i].pend = append([]string(nil), c.rounds[i].pend...)
			}
		}
	}
	if m.p2 != nil {
		c.p2 = append([]string(nil), m.p2...)
	}
	return c
}

// Encode implements system.Machine.
func (m *SMachine) Encode() string { return string(m.AppendEncode(nil)) }

// AppendEncode implements ioa.AppendEncoder: exactly Encode()'s bytes.
func (m *SMachine) AppendEncode(dst []byte) []byte {
	dst = append(dst, "SM"...)
	dst = appendLoc(dst, m.self)
	dst = append(dst, "|p"...)
	dst = strconv.AppendBool(dst, m.proposed)
	dst = append(dst, "|r"...)
	dst = strconv.AppendInt(dst, int64(m.round), 10)
	dst = append(dst, "|p2"...)
	dst = strconv.AppendBool(dst, m.phase2)
	dst = append(dst, ':')
	dst = strconv.AppendBool(dst, m.p2Sent)
	dst = append(dst, "|d"...)
	dst = strconv.AppendBool(dst, m.decided)
	dst = append(dst, ':')
	dst = append(dst, m.decidedVal...)
	dst = append(dst, "|V"...)
	for i, v := range m.vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, v...)
	}
	dst = append(dst, '|')
	dst = appendSusp(dst, m.susp)
	dst = append(dst, "|G"...)
	for i := range m.rounds {
		rd := &m.rounds[i]
		if !rd.gotSeen {
			continue
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(rd.r), 10)
		dst = append(dst, ':')
		dst = ioa.MaskLocSet(rd.gotMask).AppendEncode(dst)
		dst = append(dst, ']')
	}
	dst = append(dst, "|P"...)
	for i := range m.rounds {
		rd := &m.rounds[i]
		if rd.pendMask == 0 {
			continue
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(rd.r), 10)
		dst = append(dst, ':')
		for mask := rd.pendMask; mask != 0; mask &= mask - 1 {
			l := bits.TrailingZeros64(mask)
			dst = strconv.AppendInt(dst, int64(l), 10)
			dst = append(dst, '=')
			dst = append(dst, rd.pend[l]...)
			dst = append(dst, ';')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, "|2"...)
	for mask := m.p2Mask; mask != 0; mask &= mask - 1 {
		l := bits.TrailingZeros64(mask)
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(l), 10)
		dst = append(dst, '=')
		dst = append(dst, m.p2[l]...)
		dst = append(dst, ']')
	}
	return dst
}

// SProcs returns the S-algorithm distributed consensus: one process per
// location, subscribed to the given suspicion-set detector family (P or S).
func SProcs(n int, family string) ([]ioa.Automaton, error) {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		susp, err := SuspectorFor(family)
		if err != nil {
			return nil, err
		}
		if _, ok := susp.(*SetSuspector); !ok {
			return nil, fmt.Errorf("consensus: S algorithm needs a suspicion-set detector, got %q", family)
		}
		m := NewSMachine(n, ioa.Loc(i), susp)
		out[i] = system.NewProc("sct", ioa.Loc(i), n, m, []string{family}, []string{system.ActNamePropose})
	}
	return out, nil
}
