package pubsub

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Fuzz targets harden the decoders that face attacker-controlled bytes:
// the event/subscription codecs sit behind decryption inside the
// enclave, but a compromised publisher key or a malicious admitted
// client must not be able to crash the router with crafted bodies.

// headerSeeds is the publication-header corpus: a well-formed header,
// the degenerate ones, and the cases DecodeEventInto treats specially —
// a name twice (last value wins), names out of ID order, an unknown
// value tag, trailing bytes, an empty name.
func headerSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(attrs ...NamedValue) []byte {
		raw, err := EncodeEventSpec(EventSpec{Attrs: attrs})
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	valid := encode(NamedValue{"symbol", Str("HAL")}, NamedValue{"price", Float(49.5)}, NamedValue{"volume", Int(12)})
	badTag := encode(NamedValue{"price", Int(1)})
	badTag[2+1+len("price")] = 9
	return [][]byte{
		valid,
		{},
		{0xFF, 0xFF},
		encode(NamedValue{"price", Float(1)}, NamedValue{"symbol", Str("IBM")}, NamedValue{"price", Int(2)}),
		encode(NamedValue{"volume", Int(3)}, NamedValue{"price", Float(2)}, NamedValue{"symbol", Str("")}, NamedValue{"open", Int(1)}),
		badTag,
		append(append([]byte{}, valid...), 0),
		valid[:len(valid)-1],
		encode(NamedValue{"", Int(7)}),
		encode(),
		encode(NamedValue{"price", Float(math.NaN())}, NamedValue{"symbol", Str("HAL")}),
		encode(NamedValue{"price", Float(math.Inf(1))}, NamedValue{"volume", Float(math.Inf(-1))}),
	}
}

// checkNoNaN fails the test if a decoded value is a NaN: the decoders
// refuse one, since no bound would reject it.
func checkNoNaN(t *testing.T, what string, v Value) {
	t.Helper()
	if v.isNaN() {
		t.Fatalf("%s decoded to NaN", what)
	}
}

// sameValue is Value equality that also holds for a NaN.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

func FuzzDecodeEventSpec(f *testing.F) {
	for _, seed := range headerSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := DecodeEventSpec(raw)
		if err != nil {
			return
		}
		for _, a := range spec.Attrs {
			checkNoNaN(t, a.Name, a.Value)
		}
		// Whatever decodes must re-encode.
		if _, err := EncodeEventSpec(spec); err != nil {
			t.Fatalf("decoded spec does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeEventInto holds the hot path's header parse to the one it
// replaced there, DecodeEventSpec + Intern: the same inputs fail (with
// nothing interned), and an accepted header gives the same event —
// attribute for attribute on a schema that already knows the names
// (decoded twice into one Event, so the reuse is exercised too), and
// name for name on a fresh schema, where IDs are handed out in a
// different order.
func FuzzDecodeEventInto(f *testing.F) {
	for _, seed := range headerSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		known, fresh := NewSchema(), NewSchema()
		var want *Event
		spec, refErr := DecodeEventSpec(raw)
		if refErr == nil {
			want, refErr = spec.Intern(known)
		}
		got := &Event{Attrs: []EventAttr{{ID: 9, Value: Str("stale")}}}
		for pass := 0; pass < 2; pass++ {
			err := DecodeEventInto(known, raw, got)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("DecodeEventInto err = %v, DecodeEventSpec + Intern err = %v", err, refErr)
			}
			if err != nil {
				if !errors.Is(err, ErrCodec) {
					t.Fatalf("DecodeEventInto failed with %v, want an ErrCodec", err)
				}
				continue
			}
			for _, a := range got.Attrs {
				checkNoNaN(t, "a header attribute", a.Value)
			}
			same := len(got.Attrs) == len(want.Attrs)
			for i := 0; same && i < len(want.Attrs); i++ {
				same = got.Attrs[i].ID == want.Attrs[i].ID && sameValue(got.Attrs[i].Value, want.Attrs[i].Value)
			}
			if !same {
				t.Fatalf("pass %d: DecodeEventInto %+v, DecodeEventSpec + Intern %+v", pass, got.Attrs, want.Attrs)
			}
		}
		var cold Event
		if err := DecodeEventInto(fresh, raw, &cold); (err == nil) != (refErr == nil) {
			t.Fatalf("fresh schema: DecodeEventInto err = %v, reference err = %v", err, refErr)
		}
		if refErr != nil {
			if known.Len()+fresh.Len() != 0 {
				t.Fatalf("a rejected header interned names: %v %v", known.Names(), fresh.Names())
			}
			return
		}
		if len(cold.Attrs) != len(want.Attrs) {
			t.Fatalf("fresh schema: %d attributes, want %d", len(cold.Attrs), len(want.Attrs))
		}
		for i, a := range cold.Attrs {
			if i > 0 && cold.Attrs[i-1].ID >= a.ID {
				t.Fatalf("fresh schema: attributes not sorted by ID: %+v", cold.Attrs)
			}
			name, _ := fresh.Name(a.ID)
			id, _ := known.Lookup(name)
			if v, ok := want.Get(id); !ok || !sameValue(v, a.Value) {
				t.Fatalf("fresh schema: %q = %v, reference %v (present %v)", name, a.Value, v, ok)
			}
		}
	})
}

func FuzzDecodeSubscriptionSpec(f *testing.F) {
	valid, err := EncodeSubscriptionSpec(SubscriptionSpec{Predicates: []Predicate{
		{Attr: "symbol", Op: OpEq, Value: Str("HAL")},
		{Attr: "price", Op: OpBetween, Value: Float(1), Hi: Float(2)},
		{Attr: "name", Op: OpPrefix, Value: Str("HA")},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{1, 0})
	for _, p := range []Predicate{
		{Attr: "price", Op: OpBetween, Value: Float(math.NaN()), Hi: Float(2)},
		{Attr: "price", Op: OpBetween, Value: Float(math.Inf(-1)), Hi: Float(math.NaN())},
		{Attr: "price", Op: OpGt, Value: Float(math.Inf(1))},
	} {
		raw, err := EncodeSubscriptionSpec(SubscriptionSpec{Predicates: []Predicate{p}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := DecodeSubscriptionSpec(raw)
		if err != nil {
			return
		}
		for _, p := range spec.Predicates {
			checkNoNaN(t, p.Attr, p.Value)
			checkNoNaN(t, p.Attr+" (upper bound)", p.Hi)
		}
		// Normalising arbitrary decoded specs must never panic.
		_, _ = Normalize(NewSchema(), spec)
	})
}

func FuzzDecodeConstraints(f *testing.F) {
	schema := NewSchema()
	sub, err := Normalize(schema, SubscriptionSpec{Predicates: []Predicate{
		{Attr: "a", Op: OpBetween, Value: Float(1), Hi: Float(5)},
		{Attr: "b", Op: OpEq, Value: Str("x")},
	}})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := AppendConstraints(nil, sub.Constraints)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		cs, n, err := DecodeConstraints(raw)
		if err != nil {
			return
		}
		if n > len(raw) {
			t.Fatalf("consumed %d of %d bytes", n, len(raw))
		}
		// Decoded constraints must round-trip.
		enc, err := AppendConstraints(nil, cs)
		if err != nil {
			t.Fatalf("decoded constraints do not re-encode: %v", err)
		}
		cs2, _, err := DecodeConstraints(enc)
		if err != nil {
			t.Fatalf("re-encoded constraints do not decode: %v", err)
		}
		if len(cs2) != len(cs) {
			t.Fatalf("round trip changed arity: %d vs %d", len(cs2), len(cs))
		}
	})
}

func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`symbol = "HAL", price < 50`,
		`price in [10..50] && volume >= 1000`,
		`symbol prefix HA`,
		`a=1,b=2,c=3`,
		`x in [`,
		`= = =`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec(input)
		if err != nil {
			return
		}
		// Parsed specs must survive encoding and normalisation attempts.
		if _, err := EncodeSubscriptionSpec(spec); err != nil {
			// Over-long attribute names are a legitimate encode error.
			return
		}
		_, _ = Normalize(NewSchema(), spec)
	})
}

// evaluateDecoded is what the matching engine did before MatchEncoded:
// test decoded constraints in order with the merge join of
// Subscription.Matches, and count how many were tested.
func evaluateDecoded(ev *Event, cs []Constraint) (matched bool, evaluated int) {
	for n := 1; n <= len(cs); n++ {
		if !(&Subscription{Constraints: cs[:n]}).Matches(ev) {
			return false, n
		}
	}
	return true, len(cs)
}

// eventNear draws an event aimed at the decision points of cs: for
// each constrained attribute (and a few unconstrained ones) it is
// missing, a string equal to / extending / cutting short / unrelated to
// the constraint's, or an int or float on, beside or between the
// bounds.
func eventNear(rng *rand.Rand, cs []Constraint, extra []AttrID) *Event {
	byID := make(map[AttrID]Value)
	for _, c := range cs {
		if rng.Intn(6) == 0 {
			continue // missing attribute
		}
		var v Value
		switch pick := rng.Intn(8); {
		case pick < 4 && c.Str:
			v = Str([]string{c.EqS, c.EqS + "x", c.EqS[:len(c.EqS)/2], "zz"}[pick])
		case pick < 4:
			base := []float64{c.Lo, c.Hi, (c.Lo + c.Hi) / 2, 0}[pick]
			base += []float64{-1, 0, 0, 0.5, 1}[rng.Intn(5)]
			if rng.Intn(2) == 0 && base == math.Trunc(base) && math.Abs(base) < 1<<52 {
				v = Int(int64(base))
			} else {
				v = Float(base)
			}
		case pick < 6:
			v = Str("s")
		case pick < 7:
			v = Int(int64(rng.Intn(7)) - 3)
		default:
			v = Float(rng.NormFloat64())
		}
		byID[c.ID] = v
	}
	for _, id := range extra {
		if _, taken := byID[id]; !taken && rng.Intn(2) == 0 {
			byID[id] = Int(int64(rng.Intn(100)))
		}
	}
	ev := &Event{Attrs: make([]EventAttr, 0, len(byID))}
	for id, v := range byID {
		ev.Attrs = append(ev.Attrs, EventAttr{ID: id, Value: v})
	}
	sort.Slice(ev.Attrs, func(i, j int) bool { return ev.Attrs[i].ID < ev.Attrs[j].ID })
	return ev
}

// matchEncodedSeeds covers every constraint shape the codec has:
// string equality and prefix, closed, open and half-open intervals, a
// point interval, and a single bound on either side.
func matchEncodedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte
	for _, cs := range [][]Constraint{
		{{ID: 1, Str: true, EqS: "HAL"}, {ID: 3, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: 1, Hi: 5}},
		{{ID: 0, Str: true, Prefix: true, EqS: "HA"}, {ID: 2, HasHi: true, Hi: 50}},
		{{ID: 2, HasLo: true, Lo: -3.5}, {ID: 4, HasLo: true, HasHi: true, LoIncl: true, Lo: 10, Hi: 20}},
		{{ID: 5, HasLo: true, HasHi: true, HiIncl: true, Lo: 0, Hi: 1e6}, {ID: 6, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: 7, Hi: 7}},
		{{ID: 7, Str: true, EqS: ""}, {ID: 8, HasLo: true, LoIncl: true, Lo: 2}, {ID: 9, HasHi: true, HiIncl: true, Hi: 2}},
	} {
		blob, err := AppendConstraints(nil, cs)
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// FuzzMatchEncoded holds the in-place evaluator to the decoder: on
// every blob DecodeConstraints accepts, verdict and evaluated count
// equal decode-then-evaluate-in-order; on arbitrary bytes it never
// panics and fails only with ErrCodec.
func FuzzMatchEncoded(f *testing.F) {
	for i, blob := range matchEncodedSeeds(f) {
		f.Add(blob, int64(i))
		f.Add(blob[:len(blob)-3], int64(i))
	}
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0xFF, 0xFF, 1, 0, 1}, int64(1))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		cs, _, decodeErr := DecodeConstraints(raw)
		rng := rand.New(rand.NewSource(seed))
		// Arbitrary bytes still get events on the attribute they name first.
		extra := []AttrID{0, 1, 2, 3}
		if len(raw) >= 4 {
			extra = append(extra, AttrID(binary.LittleEndian.Uint16(raw[2:])))
		}
		for trial := 0; trial < 16; trial++ {
			ev := eventNear(rng, cs, extra)
			matched, evaluated, err := MatchEncoded(ev, raw)
			if err != nil && !errors.Is(err, ErrCodec) {
				t.Fatalf("MatchEncoded failed with %v, want an ErrCodec", err)
			}
			if decodeErr != nil {
				continue
			}
			if err != nil {
				t.Fatalf("blob decodes but MatchEncoded fails: %v", err)
			}
			if wantMatched, wantEvaluated := evaluateDecoded(ev, cs); matched != wantMatched || evaluated != wantEvaluated {
				t.Fatalf("event %+v on %v: matched=%v evaluated=%d, decoded evaluation says %v %d",
					ev.Attrs, cs, matched, evaluated, wantMatched, wantEvaluated)
			}
		}
	})
}

// subNear draws a normalised subscription (sorted, one constraint per
// attribute) aimed at the covering decisions against cs: each of its
// constraints is missing, repeated, or moved — a string made equal to,
// a prefix of, an extension of or unrelated to the blob's, a bound
// tightened, loosened, opened, closed or dropped — and unconstrained
// attributes from extra are sometimes added.
func subNear(rng *rand.Rand, cs []Constraint, extra []AttrID) *Subscription {
	byID := make(map[AttrID]Constraint)
	for _, c := range cs {
		if _, taken := byID[c.ID]; taken || rng.Intn(5) == 0 {
			continue
		}
		switch pick := rng.Intn(6); {
		case pick < 2: // repeated
		case c.Str:
			c.EqS = []string{c.EqS, c.EqS + "x", c.EqS[:len(c.EqS)/2], "zz"}[rng.Intn(4)]
			c.Prefix = rng.Intn(2) == 0
		case pick == 2:
			c = Constraint{ID: c.ID, Str: true, EqS: "s"}
		default:
			nudge := func(f float64) float64 { return f + []float64{-1, 0, 0, 1, math.Inf(1), math.Inf(-1)}[rng.Intn(6)] }
			c.Lo, c.Hi = nudge(c.Lo), nudge(c.Hi)
			c.LoIncl, c.HiIncl = rng.Intn(2) == 0, rng.Intn(2) == 0
			c.HasLo, c.HasHi = c.HasLo != (rng.Intn(4) == 0), c.HasHi != (rng.Intn(4) == 0)
			c.Prefix = false
		}
		byID[c.ID] = c
	}
	for _, id := range extra {
		if _, taken := byID[id]; !taken && rng.Intn(3) == 0 {
			byID[id] = Constraint{ID: id, HasLo: true, Lo: float64(rng.Intn(5))}
		}
	}
	sub := &Subscription{}
	for _, c := range byID {
		sub.Constraints = append(sub.Constraints, c)
	}
	sort.Slice(sub.Constraints, func(i, j int) bool { return sub.Constraints[i].ID < sub.Constraints[j].ID })
	return sub
}

// coverEncodedSeeds adds to matchEncodedSeeds the shapes only a
// covering test distinguishes: an empty string, a prefix of another
// prefix, bounds at ±Inf, and one blob holding both string kinds.
func coverEncodedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	blobs := matchEncodedSeeds(tb)
	for _, cs := range [][]Constraint{
		{{ID: 0, Str: true, Prefix: true, EqS: ""}, {ID: 1, Str: true, EqS: "HALO"}},
		{{ID: 1, HasLo: true, HasHi: true, Lo: math.Inf(-1), Hi: math.Inf(1)}, {ID: 2, HasLo: true, LoIncl: true, Lo: math.Inf(1)}},
		{{ID: 3, HasHi: true, HiIncl: true, Hi: math.Inf(-1)}, {ID: 4, Str: true, Prefix: true, EqS: "HAL"}},
	} {
		blob, err := AppendConstraints(nil, cs)
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// FuzzCoverEncoded holds the in-place covering test to the decoder: on
// every blob DecodeConstraints accepts, and any normalised subscription,
// both directions and the count equal those of Subscription.Covers on
// the decoded blob; on every blob it rejects — each truncation of a
// seed among them — CoverEncoded fails too, with an ErrCodec.
func FuzzCoverEncoded(f *testing.F) {
	for i, blob := range coverEncodedSeeds(f) {
		for _, cut := range []int{len(blob), len(blob) - 1, len(blob) - 8, 4, 3, 1} {
			if cut >= 0 && cut <= len(blob) {
				f.Add(blob[:cut], int64(i))
			}
		}
	}
	f.Add([]byte{0, 0}, int64(0))
	f.Add([]byte{2, 0, 5, 0, 0, 3, 0, 0}, int64(1)) // IDs out of order
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		cs, _, decodeErr := DecodeConstraints(raw)
		rng := rand.New(rand.NewSource(seed))
		extra := []AttrID{0, 1, 2, 3, 5}
		for trial := 0; trial < 16; trial++ {
			sub := subNear(rng, cs, extra)
			blobCovers, subCovers, n, err := CoverEncoded(raw, sub)
			if decodeErr != nil {
				if !errors.Is(err, ErrCodec) {
					t.Fatalf("DecodeConstraints fails (%v) but CoverEncoded err = %v", decodeErr, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("blob decodes but CoverEncoded fails: %v", err)
			}
			decoded := &Subscription{Constraints: cs}
			if want := [3]any{decoded.Covers(sub), sub.Covers(decoded), len(cs)}; [3]any{blobCovers, subCovers, n} != want {
				t.Fatalf("%v against %v: CoverEncoded (blob ⊒ sub, sub ⊒ blob, n) = %v %v %d, decoded says %v",
					cs, sub.Constraints, blobCovers, subCovers, n, want)
			}
		}
	})
}

// TestMatchEncodedTruncated cuts each seed blob short under an event
// that satisfies it, so every byte is read: each cut must surface as an
// ErrCodec, never as a verdict or a panic.
func TestMatchEncodedTruncated(t *testing.T) {
	for _, blob := range matchEncodedSeeds(t) {
		cs, _, err := DecodeConstraints(blob)
		if err != nil {
			t.Fatal(err)
		}
		ev := &Event{}
		for _, c := range cs {
			var v Value
			switch {
			case c.Str:
				v = Str(c.EqS)
			case c.HasLo && c.HasHi:
				v = Float((c.Lo + c.Hi) / 2)
			case c.HasLo:
				v = Float(c.Lo + 1)
			default:
				v = Float(c.Hi - 1)
			}
			ev.Attrs = append(ev.Attrs, EventAttr{ID: c.ID, Value: v})
		}
		if matched, evaluated, err := MatchEncoded(ev, blob); err != nil || !matched || evaluated != len(cs) {
			t.Fatalf("%v: whole blob gives matched=%v evaluated=%d err=%v", cs, matched, evaluated, err)
		}
		for cut := 0; cut < len(blob); cut++ {
			if _, _, err := MatchEncoded(ev, blob[:cut]); !errors.Is(err, ErrCodec) {
				t.Fatalf("%v cut to %d of %d bytes: err = %v, want ErrCodec", cs, cut, len(blob), err)
			}
		}
	}
}
