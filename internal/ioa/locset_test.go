package ioa

import (
	"slices"
	"testing"
)

// locSetSeeds covers the payload shapes the codec must agree on: empty,
// duplicate members, negative and ≥64 locations, signs and leading zeros
// that strconv.Atoi accepts, and malformed strings.
var locSetSeeds = []string{
	"{}", "{0}", "{1,1}", "{2,0,1}", "{63}", "{64}", "{-1,3}", "{0,63,64,200,-7}",
	"{+1}", "{007}", "{-0}", "", "{", "}", "{,}", "{1,}", "{,1}", "{0,,1}", "{a}",
	"{ 1}", "0,1", "heartbeat:3", "{99999999999999999999}",
}

// checkLocSetAgrees fails t unless ParseLocSet agrees with DecodeLocSet on
// s: same acceptance and error text, same members (probed over a range
// around the mask boundaries), same size, ascending AppendLocs, and
// AppendEncode bytes equal to EncodeLocSet's.
func checkLocSetAgrees(t *testing.T, s string) {
	t.Helper()
	want, wantErr := DecodeLocSet(s)
	got, gotErr := ParseLocSet(s)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("ParseLocSet(%q) err = %v, DecodeLocSet err = %v", s, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("ParseLocSet(%q) err = %q, want %q", s, gotErr, wantErr)
		}
		return
	}
	if got.Len() != len(want) {
		t.Fatalf("ParseLocSet(%q).Len() = %d, want %d", s, got.Len(), len(want))
	}
	for l := range want {
		if !got.Has(l) {
			t.Fatalf("ParseLocSet(%q) lacks %d", s, l)
		}
	}
	for l := Loc(-3); l < 70; l++ {
		if got.Has(l) != want[l] {
			t.Fatalf("ParseLocSet(%q).Has(%d) = %t, want %t", s, l, got.Has(l), want[l])
		}
	}
	locs := got.AppendLocs(nil)
	if len(locs) != len(want) || !slices.IsSorted(locs) {
		t.Fatalf("ParseLocSet(%q).AppendLocs = %v, want the %d members ascending", s, locs, len(want))
	}
	if enc, wantEnc := string(got.AppendEncode([]byte("x"))), "x"+EncodeLocSet(want); enc != wantEnc {
		t.Fatalf("AppendEncode of %q = %q, want %q", s, enc, wantEnc)
	}
}

func TestParseLocSetMatchesDecode(t *testing.T) {
	for _, s := range locSetSeeds {
		checkLocSetAgrees(t, s)
	}
}

// FuzzLocSet checks ParseLocSet and AppendEncode against the map codec
// (DecodeLocSet, EncodeLocSet) on arbitrary payloads.
func FuzzLocSet(f *testing.F) {
	for _, s := range locSetSeeds {
		f.Add(s)
	}
	f.Fuzz(checkLocSetAgrees)
}

func mustParse(t *testing.T, s string) LocSet {
	t.Helper()
	set, err := ParseLocSet(s)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestLocSetOps checks the set algebra against its definition, in the mask
// and across the spill map, and that no operation writes to an operand.
func TestLocSetOps(t *testing.T) {
	a := mustParse(t, "{-2,0,3,64,90}")
	b := mustParse(t, "{0,1,64,100}")
	aEnc, bEnc := string(a.AppendEncode(nil)), string(b.AppendEncode(nil))
	for _, tc := range []struct {
		name string
		got  LocSet
		want string
	}{
		{"union", a.Union(b), "{-2,0,1,3,64,90,100}"},
		{"union empty", a.Union(LocSet{}), "{-2,0,3,64,90}"},
		{"empty union", LocSet{}.Union(b), "{0,1,64,100}"},
		{"intersect", a.Intersect(b), "{0,64}"},
		{"intersect mask only", a.Intersect(mustParse(t, "{0,3}")), "{0,3}"},
		{"minus", a.Minus(b), "{-2,3,90}"},
		{"minus mask only", a.Minus(mustParse(t, "{3}")), "{-2,0,64,90}"},
		{"minus all", b.Minus(b), "{}"},
	} {
		if enc := string(tc.got.AppendEncode(nil)); enc != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, enc, tc.want)
		}
	}
	if got, want := string(a.AppendEncode(nil)), aEnc; got != want {
		t.Errorf("operand a changed: %s, was %s", got, want)
	}
	if got, want := string(b.AppendEncode(nil)), bEnc; got != want {
		t.Errorf("operand b changed: %s, was %s", got, want)
	}
}
