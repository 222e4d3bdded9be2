package ioa

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// LocSet is a decoded location-set payload: a 64-bit mask over locations
// [0, 64) plus a spill map for members outside that range.  Every detector in
// the repository has n ≤ 64 locations, so its sets live in the mask and the
// set operations are word operations; a handcrafted payload naming a negative
// or large location still decodes exactly.  The zero value is the empty set.
//
// LocSet is a value.  Union, Intersect and Minus return new sets and never
// write to an operand, so a set may be copied and shared freely; only Add
// writes in place, into a spill map that copies of the set share.
type LocSet struct {
	mask  uint64
	spill map[Loc]struct{} // members outside [0, 64); nil when there are none
}

// MaskLocSet returns the set whose members are the bit positions set in
// mask, e.g. 0b101 → {0,2}.
func MaskLocSet(mask uint64) LocSet { return LocSet{mask: mask} }

// ParseLocSet parses a payload produced by EncodeLocSet.  It accepts and
// rejects exactly the strings DecodeLocSet does, with the same errors.
func ParseLocSet(s string) (LocSet, error) {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return LocSet{}, fmt.Errorf("ioa: malformed location set %q", s)
	}
	var set LocSet
	body := s[1 : len(s)-1]
	if body == "" {
		return set, nil
	}
	for {
		part, rest, more := strings.Cut(body, ",")
		v, err := strconv.Atoi(part)
		if err != nil {
			return LocSet{}, fmt.Errorf("ioa: malformed location set %q: %v", s, err)
		}
		set.Add(Loc(v))
		if !more {
			return set, nil
		}
		body = rest
	}
}

// Has reports whether l is a member.
func (s LocSet) Has(l Loc) bool {
	if l >= 0 && l < 64 {
		return s.mask&(1<<uint(l)) != 0
	}
	_, in := s.spill[l]
	return in
}

// Add inserts l.  A member outside [0, 64) goes into the spill map in place,
// which copies of s share: add members before sharing the set.
func (s *LocSet) Add(l Loc) {
	if l >= 0 && l < 64 {
		s.mask |= 1 << uint(l)
		return
	}
	if s.spill == nil {
		s.spill = map[Loc]struct{}{}
	}
	s.spill[l] = struct{}{}
}

// Len returns the number of members.
func (s LocSet) Len() int { return bits.OnesCount64(s.mask) + len(s.spill) }

// Union returns s ∪ o.
func (s LocSet) Union(o LocSet) LocSet {
	u := LocSet{mask: s.mask | o.mask, spill: s.spill}
	switch {
	case len(o.spill) == 0:
	case len(s.spill) == 0:
		u.spill = o.spill
	default:
		u.spill = make(map[Loc]struct{}, len(s.spill)+len(o.spill))
		for l := range s.spill {
			u.spill[l] = struct{}{}
		}
		for l := range o.spill {
			u.spill[l] = struct{}{}
		}
	}
	return u
}

// Intersect returns s ∩ o.
func (s LocSet) Intersect(o LocSet) LocSet {
	return LocSet{mask: s.mask & o.mask, spill: filterSpill(s.spill, o.spill, true)}
}

// Minus returns s \ o.
func (s LocSet) Minus(o LocSet) LocSet {
	return LocSet{mask: s.mask &^ o.mask, spill: filterSpill(s.spill, o.spill, false)}
}

// filterSpill returns the members of a that are (keep) or are not (!keep)
// in b, sharing a when that is all of them and nil when it is none.
func filterSpill(a, b map[Loc]struct{}, keep bool) map[Loc]struct{} {
	if len(a) == 0 || (keep && len(b) == 0) {
		return nil
	}
	if !keep && len(b) == 0 {
		return a
	}
	var out map[Loc]struct{}
	for l := range a {
		if _, in := b[l]; in == keep {
			if out == nil {
				out = map[Loc]struct{}{}
			}
			out[l] = struct{}{}
		}
	}
	return out
}

// AppendLocs appends the members to dst in ascending order.
func (s LocSet) AppendLocs(dst []Loc) []Loc {
	var spill []Loc
	if len(s.spill) > 0 {
		spill = make([]Loc, 0, len(s.spill))
		for l := range s.spill {
			spill = append(spill, l)
		}
		slices.Sort(spill)
	}
	i := 0
	for ; i < len(spill) && spill[i] < 0; i++ {
		dst = append(dst, spill[i])
	}
	for m := s.mask; m != 0; m &= m - 1 {
		dst = append(dst, Loc(bits.TrailingZeros64(m)))
	}
	return append(dst, spill[i:]...)
}

// AppendEncode appends exactly the bytes EncodeLocSet renders for the same
// members, e.g. {2,0,1} → "{0,1,2}".
func (s LocSet) AppendEncode(dst []byte) []byte {
	dst = append(dst, '{')
	if len(s.spill) > 0 {
		for i, l := range s.AppendLocs(nil) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(l), 10)
		}
		return append(dst, '}')
	}
	for m := s.mask; m != 0; m &= m - 1 {
		if m != s.mask {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(bits.TrailingZeros64(m)), 10)
	}
	return append(dst, '}')
}
