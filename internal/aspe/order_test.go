package aspe

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scbr/internal/pubsub"
)

// plainTest is one sign test as the subscriber meant it: the attribute
// slot it reads, whether it reads the presence bit rather than the
// value, the value's coefficient (±1) and the constant term, all
// divided by the vector's random scale r.
type plainTest struct {
	attr     int
	presence bool
	coef     float64
	konst    float64
}

// wantTests is the order QueryVectors promises for sub: every bound
// test in constraint order, then every presence test in constraint
// order.
func wantTests(s *Scheme, sub *pubsub.Subscription) []plainTest {
	var bounds, presence []plainTest
	for _, c := range sub.Constraints {
		i := s.index[c.ID]
		switch {
		case c.Str:
			h := valueScalar(pubsub.Str(c.EqS))
			bounds = append(bounds, plainTest{attr: i, coef: 1, konst: -h}, plainTest{attr: i, coef: -1, konst: h})
		default:
			if c.HasLo {
				bounds = append(bounds, plainTest{attr: i, coef: 1, konst: -c.Lo / s.scales[i]})
			}
			if c.HasHi {
				bounds = append(bounds, plainTest{attr: i, coef: -1, konst: c.Hi / s.scales[i]})
			}
		}
		presence = append(presence, plainTest{attr: i, presence: true, coef: 1, konst: -1})
	}
	return append(bounds, presence...)
}

// recoverTest undoes the encryption of one query vector with the
// secret matrix, M·E(q) = r·q̂, and reads the one sign test q̂ holds.
func recoverTest(t *testing.T, s *Scheme, enc []float64) plainTest {
	t.Helper()
	d := len(s.attrs)
	q := make([]float64, s.n)
	s.m.MulVec(q, enc)
	const eps = 1e-9
	var got plainTest
	slot := -1
	for j := 0; j < 2*d; j++ {
		if math.Abs(q[j]) < eps {
			continue
		}
		if slot >= 0 {
			t.Fatalf("query vector reads slots %d and %d: %v", slot, j, q)
		}
		slot = j
	}
	if slot < 0 || math.Abs(q[2*d+1]) > eps {
		t.Fatalf("query vector reads no attribute, or the blinding slot: %v", q)
	}
	r := math.Abs(q[slot])
	got.attr, got.presence = slot%d, slot >= d
	got.coef, got.konst = q[slot]/r, q[2*d]/r
	return got
}

// TestBoundTestsBeforePresence decrypts every query vector of random
// subscriptions and holds QueryVectors to its order: the bound tests
// first and the presence tests after them, each in constraint order,
// one presence test plus one vector per bound for each constraint.
func TestBoundTestsBeforePresence(t *testing.T) {
	scheme, _ := newTestMatcher(t, true)
	rng := rand.New(rand.NewSource(33))
	shapes := map[string]int{}
	for n := 0; n < 300; n++ {
		sub, err := pubsub.Normalize(scheme.schema, randomASPESpec(rng))
		if err != nil {
			continue
		}
		es, err := scheme.EncodeSubscription(sub)
		if err != nil {
			t.Fatal(err)
		}
		want := wantTests(scheme, sub)
		if len(es.Vectors) != len(want) {
			t.Fatalf("subscription %d: %d vectors, want %d", n, len(es.Vectors), len(want))
		}
		for k, enc := range es.Vectors {
			got := recoverTest(t, scheme, enc)
			w := want[k]
			if got.attr != w.attr || got.presence != w.presence || got.coef != w.coef || math.Abs(got.konst-w.konst) > 1e-9 {
				t.Fatalf("subscription %d vector %d of %d: test %+v, want %+v", n, k, len(want), got, w)
			}
		}
		for _, c := range sub.Constraints {
			switch {
			case c.Str:
				shapes["string equality"]++
			case c.HasLo && c.HasHi && c.Lo == c.Hi:
				shapes["numeric equality"]++
			case c.HasLo && c.HasHi:
				shapes["two-sided"]++
			default:
				shapes["one-sided"]++
			}
		}

		// One ciphertext vector each, plus the vector slice, the
		// plaintext scratch and the EncodedSubscription.
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := scheme.EncodeSubscription(sub); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(len(want) + 3); allocs > limit {
			t.Fatalf("subscription %d: EncodeSubscription allocates %.0f times for %d vectors, want at most %.0f", n, allocs, len(want), limit)
		}
	}
	if len(shapes) != 4 {
		t.Fatalf("constraint shapes drawn: %v, want all four", shapes)
	}
}

// presenceFirst rearranges es's vectors into the order QueryVectors
// emitted before bound tests came first: per constraint its presence
// test, then its bounds.
func presenceFirst(sub *pubsub.Subscription, es *EncodedSubscription) *EncodedSubscription {
	nb := len(es.Vectors) - len(sub.Constraints)
	bounds, presence := es.Vectors[:nb], es.Vectors[nb:]
	var vecs [][]float64
	for j, c := range sub.Constraints {
		k := 2
		if !c.Str {
			k = 0
			if c.HasLo {
				k++
			}
			if c.HasHi {
				k++
			}
		}
		vecs = append(vecs, presence[j])
		vecs = append(vecs, bounds[:k]...)
		bounds = bounds[k:]
	}
	old := *es
	old.Vectors = vecs
	return &old
}

// TestScanVectorOrderInvariant registers every subscription three
// times over — in QueryVectors' order, in the presence-first order
// blobs registered before it carry, and shuffled — and holds all three
// stores to the plaintext closed-bound result, one event at a time and
// in batches of eight. The events include ones that lack an attribute
// a subscription bounds from above by a positive value (volume ≤ 50):
// only that subscription's presence test refuses them. Last, it pins
// what the order buys: a price band refuses an event below it on the
// first vector the scan reads.
func TestScanVectorOrderInvariant(t *testing.T) {
	scheme, ordered := newTestMatcher(t, true)
	_, legacy := newTestMatcher(t, true)
	_, shuffled := newTestMatcher(t, true)
	stores := []*Store{ordered, legacy, shuffled}
	schema := scheme.schema
	rng := rand.New(rand.NewSource(34))

	subs := map[uint64]*pubsub.Subscription{}
	add := func(spec pubsub.SubscriptionSpec) {
		sub, err := pubsub.Normalize(schema, spec)
		if err != nil {
			return
		}
		es, err := scheme.EncodeSubscription(sub)
		if err != nil {
			t.Fatal(err)
		}
		mixed := *es
		mixed.Vectors = slices.Clone(es.Vectors)
		rng.Shuffle(len(mixed.Vectors), func(a, b int) {
			mixed.Vectors[a], mixed.Vectors[b] = mixed.Vectors[b], mixed.Vectors[a]
		})
		var id uint64
		for k, form := range []*EncodedSubscription{es, presenceFirst(sub, es), &mixed} {
			got, err := stores[k].Register(form, 0)
			if err != nil {
				t.Fatal(err)
			}
			if k > 0 && got != id {
				t.Fatalf("stores disagree on IDs: %d vs %d", got, id)
			}
			id = got
		}
		subs[id] = sub
	}
	add(pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{{Attr: "volume", Op: pubsub.OpLe, Value: pubsub.Float(50)}}})
	add(pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str("IBM")},
		{Attr: "volume", Op: pubsub.OpBetween, Value: pubsub.Float(0), Hi: pubsub.Float(60)},
	}})
	for i := 0; i < 300; i++ {
		add(randomASPESpec(rng))
	}

	volume, _ := schema.Lookup("volume")
	events := make([]*pubsub.Event, 200)
	lacking := 0
	for i := range events {
		events[i] = randomASPEEvent(t, rng, schema)
		if _, ok := events[i].Get(volume); !ok {
			lacking++
		}
	}
	if lacking == 0 {
		t.Fatal("no event lacks volume")
	}
	want := make([][]uint64, len(events))
	eps := make([]*EncodedPublication, len(events))
	for i, ev := range events {
		for id, sub := range subs {
			if closedMatches(sub, ev) {
				want[i] = append(want[i], id)
			}
		}
		sort.Slice(want[i], func(a, b int) bool { return want[i][a] < want[i][b] })
		ep, err := scheme.EncodePublication(ev)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	ids := func(ms []Match) []uint64 {
		out := make([]uint64, len(ms))
		for i, m := range ms {
			out[i] = m.SubID
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	for k, store := range stores {
		order := []string{"bounds first", "presence first", "shuffled"}[k]
		for i, ep := range eps {
			got, err := store.MatchEncoded(ep, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids(got), want[i]) {
				t.Fatalf("%s, event %d: matched %v, plaintext %v", order, i, ids(got), want[i])
			}
		}
		for base := 0; base < len(eps); base += 8 {
			out := make([][]Match, 8)
			if err := store.MatchEncodedBatch(eps[base:base+8], out); err != nil {
				t.Fatal(err)
			}
			for j, got := range out {
				if !slices.Equal(ids(got), want[base+j]) {
					t.Fatalf("%s, batch at %d, event %d: matched %v, plaintext %v", order, base, j, ids(got), want[base+j])
				}
			}
		}
	}

	band, err := pubsub.Normalize(schema, pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "price", Op: pubsub.OpBetween, Value: pubsub.Float(40), Hi: pubsub.Float(60)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, store := newTestMatcher(t, true)
	register(t, scheme, store, band)
	for _, price := range []float64{0, 10, 39} {
		ev, err := pubsub.NewEvent(schema, map[string]pubsub.Value{"symbol": pubsub.Str("HAL"), "price": pubsub.Float(price)})
		if err != nil {
			t.Fatal(err)
		}
		before := store.Meter().C
		if got := match(t, scheme, store, ev); len(got) != 0 {
			t.Fatalf("price %g matched the band [40, 60]", price)
		}
		if read, want := store.Meter().C.Sub(before).BytesRead, uint64(store.vecBytes()); read != want {
			t.Fatalf("price %g: the scan read %d bytes, want one vector (%d)", price, read, want)
		}
	}
}
