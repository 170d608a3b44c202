package aspe

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

func TestMatrixInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 24, 90} {
		m := NewRandomInvertible(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// M · M⁻¹ ≈ I.
		v := make([]float64, n)
		tmp := make([]float64, n)
		out := make([]float64, n)
		for trial := 0; trial < 5; trial++ {
			for i := range v {
				v[i] = rng.Float64()*2 - 1
			}
			inv.MulVec(tmp, v)
			m.MulVec(out, tmp)
			for i := range v {
				if math.Abs(out[i]-v[i]) > 1e-8 {
					t.Fatalf("n=%d: M·M⁻¹·v deviates at %d: %g vs %g", n, i, out[i], v[i])
				}
			}
		}
	}
}

func TestMatrixSingularRejected(t *testing.T) {
	m := NewMatrix(3) // all zeros
	if _, err := m.Inverse(); err == nil {
		t.Fatal("singular matrix inverted")
	}
}

func TestTMulVecAgainstMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 7
	m := NewRandomInvertible(rng, n)
	// Build Mᵀ explicitly and compare.
	mt := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			mt.Set(i, j, m.At(j, i))
		}
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	a := make([]float64, n)
	b := make([]float64, n)
	m.TMulVec(a, v)
	mt.MulVec(b, v)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("TMulVec mismatch at %d", i)
		}
	}
}

func TestScalarProductPreservation(t *testing.T) {
	// The defining ASPE property: E(p)·E(q) == p̂·q̂ up to float noise.
	rng := rand.New(rand.NewSource(3))
	n := 24
	m := NewRandomInvertible(rng, n)
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()*200 - 100
			q[i] = rng.Float64()*2 - 1
		}
		ep := make([]float64, n)
		eq := make([]float64, n)
		m.TMulVec(ep, p)
		inv.MulVec(eq, q)
		want := Dot(p, q)
		got := Dot(ep, eq)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("scalar product not preserved: %g vs %g", got, want)
		}
	}
}

// buildUniverse interns a fixed attribute set.
func buildUniverse(t testing.TB, names ...string) (*pubsub.Schema, []pubsub.AttrID) {
	t.Helper()
	schema := pubsub.NewSchema()
	ids := make([]pubsub.AttrID, 0, len(names))
	for _, n := range names {
		id, err := schema.Intern(n)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return schema, ids
}

// newTestMatcher builds the scheme's two halves side by side: the
// Scheme that encrypts and a Store configured with its dimension.
func newTestMatcher(t testing.TB, prefilter bool) (*Scheme, *Store) {
	t.Helper()
	schema, ids := buildUniverse(t, "symbol", "price", "volume", "open", "close")
	scheme, err := NewScheme(schema, ids, 99)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(simmem.NewPlainAccessor(simmem.DefaultCost()), Options{Prefilter: prefilter})
	if err := store.Configure(scheme.Dim()); err != nil {
		t.Fatal(err)
	}
	return scheme, store
}

// register encrypts a subscription and stores it.
func register(t testing.TB, scheme *Scheme, store *Store, sub *pubsub.Subscription) uint64 {
	t.Helper()
	es, err := scheme.EncodeSubscription(sub)
	if err != nil {
		t.Fatal(err)
	}
	id, err := store.Register(es, 0)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// match encrypts an event and returns the IDs whose sign tests pass.
func match(t testing.TB, scheme *Scheme, store *Store, ev *pubsub.Event) []uint64 {
	t.Helper()
	ep, err := scheme.EncodePublication(ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.MatchEncoded(ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(res))
	for i, r := range res {
		ids[i] = r.SubID
	}
	return ids
}

// closedMatches evaluates a subscription against an event under ASPE's
// closed-bound semantics (strict bounds relaxed to inclusive).
func closedMatches(sub *pubsub.Subscription, ev *pubsub.Event) bool {
	for _, c := range sub.Constraints {
		v, ok := ev.Get(c.ID)
		if !ok {
			return false
		}
		if c.Str {
			if v.Kind != pubsub.KindString || v.S != c.EqS {
				return false
			}
			continue
		}
		if !v.Numeric() {
			return false
		}
		f := v.AsFloat()
		if c.HasLo && f < c.Lo {
			return false
		}
		if c.HasHi && f > c.Hi {
			return false
		}
	}
	return true
}

func randomASPESpec(rng *rand.Rand) pubsub.SubscriptionSpec {
	symbols := []string{"HAL", "IBM", "MSFT"}
	numAttrs := []string{"price", "volume", "open", "close"}
	var preds []pubsub.Predicate
	if rng.Intn(3) > 0 {
		preds = append(preds, pubsub.Predicate{
			Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str(symbols[rng.Intn(len(symbols))]),
		})
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		attr := numAttrs[rng.Intn(len(numAttrs))]
		lo := float64(rng.Intn(100))
		switch rng.Intn(4) {
		case 0:
			preds = append(preds, pubsub.Predicate{Attr: attr, Op: pubsub.OpLe, Value: pubsub.Float(lo)})
		case 1:
			preds = append(preds, pubsub.Predicate{Attr: attr, Op: pubsub.OpGe, Value: pubsub.Float(lo)})
		case 2:
			preds = append(preds, pubsub.Predicate{Attr: attr, Op: pubsub.OpBetween, Value: pubsub.Float(lo), Hi: pubsub.Float(lo + float64(rng.Intn(50)))})
		default:
			preds = append(preds, pubsub.Predicate{Attr: attr, Op: pubsub.OpEq, Value: pubsub.Float(lo)})
		}
	}
	if len(preds) == 0 {
		preds = append(preds, pubsub.Predicate{Attr: "price", Op: pubsub.OpGe, Value: pubsub.Float(0)})
	}
	return pubsub.SubscriptionSpec{Predicates: preds}
}

func randomASPEEvent(t *testing.T, rng *rand.Rand, schema *pubsub.Schema) *pubsub.Event {
	t.Helper()
	symbols := []string{"HAL", "IBM", "MSFT"}
	attrs := map[string]pubsub.Value{
		"symbol": pubsub.Str(symbols[rng.Intn(len(symbols))]),
		"price":  pubsub.Float(float64(rng.Intn(150))),
		"volume": pubsub.Float(float64(rng.Intn(150))),
		"open":   pubsub.Float(float64(rng.Intn(150))),
		"close":  pubsub.Float(float64(rng.Intn(150))),
	}
	if rng.Intn(4) == 0 {
		delete(attrs, "volume")
	}
	ev, err := pubsub.NewEvent(schema, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestASPEEquivalentToClosedSemantics is the scheme's correctness
// property: encrypted matching returns exactly the closed-bound
// plaintext result.
func TestASPEEquivalentToClosedSemantics(t *testing.T) {
	for _, prefilter := range []bool{false, true} {
		scheme, store := newTestMatcher(t, prefilter)
		schema := scheme.schema
		rng := rand.New(rand.NewSource(5))
		subs := make(map[uint64]*pubsub.Subscription)
		for i := 0; i < 400; i++ {
			sub, err := pubsub.Normalize(schema, randomASPESpec(rng))
			if err != nil {
				continue
			}
			subs[register(t, scheme, store, sub)] = sub
		}
		for i := 0; i < 200; i++ {
			ev := randomASPEEvent(t, rng, schema)
			got := match(t, scheme, store, ev)
			var want []uint64
			for id, sub := range subs {
				if closedMatches(sub, ev) {
					want = append(want, id)
				}
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(got) != len(want) {
				t.Fatalf("prefilter=%v event %d: ASPE %d matches, plaintext %d", prefilter, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("prefilter=%v event %d: ASPE %v != plaintext %v", prefilter, i, got, want)
				}
			}
		}
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	// Whatever the filter says "skip" must truly not match. Compare
	// prefiltered and unprefiltered matchers on identical inputs.
	scheme, plain := newTestMatcher(t, false)
	_, filtered := newTestMatcher(t, true)
	schemaA := scheme.schema
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		sub, err := pubsub.Normalize(schemaA, randomASPESpec(rng))
		if err != nil {
			continue
		}
		register(t, scheme, plain, sub)
		register(t, scheme, filtered, sub)
	}
	for i := 0; i < 100; i++ {
		ev := randomASPEEvent(t, rng, schemaA)
		a := match(t, scheme, plain, ev)
		b := match(t, scheme, filtered, ev)
		if len(a) != len(b) {
			t.Fatalf("event %d: prefilter dropped matches: %d vs %d", i, len(b), len(a))
		}
	}
}

func TestPrefilterReducesWork(t *testing.T) {
	scheme, plain := newTestMatcher(t, false)
	_, filtered := newTestMatcher(t, true)
	schema := scheme.schema
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		spec := pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
			{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str([]string{"HAL", "IBM", "MSFT"}[rng.Intn(3)])},
			{Attr: "price", Op: pubsub.OpLe, Value: pubsub.Float(float64(rng.Intn(100)))},
		}}
		sub, err := pubsub.Normalize(schema, spec)
		if err != nil {
			t.Fatal(err)
		}
		register(t, scheme, plain, sub)
		register(t, scheme, filtered, sub)
	}
	ev := randomASPEEvent(t, rng, schema)
	beforePlain := plain.Meter().C
	match(t, scheme, plain, ev)
	costPlain := plain.Meter().C.Sub(beforePlain).Cycles
	beforeFiltered := filtered.Meter().C
	match(t, scheme, filtered, ev)
	costFiltered := filtered.Meter().C.Sub(beforeFiltered).Cycles
	// With only a handful of dimensions the saving is modest (the
	// unfiltered scan already fails fast on the equality product); the
	// prefilter must still be a clear win.
	if float64(costFiltered) > 0.8*float64(costPlain) {
		t.Fatalf("prefilter did not pay off: %d vs %d cycles", costFiltered, costPlain)
	}
}

func TestSchemeValidation(t *testing.T) {
	schema, ids := buildUniverse(t, "a", "b")
	if _, err := NewScheme(schema, nil, 1); err == nil {
		t.Fatal("empty universe accepted")
	}
	if _, err := NewScheme(schema, []pubsub.AttrID{ids[0], ids[0]}, 1); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	scheme, err := NewScheme(schema, ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Dim() != 2*2+2 || scheme.NumAttrs() != 2 {
		t.Fatalf("dims wrong: %d, %d", scheme.Dim(), scheme.NumAttrs())
	}
	// Attributes outside the universe are rejected.
	outsideID, err := schema.Intern("outside")
	if err != nil {
		t.Fatal(err)
	}
	ev := &pubsub.Event{Attrs: []pubsub.EventAttr{{ID: outsideID, Value: pubsub.Float(1)}}}
	if _, err := scheme.EncryptPoint(ev); err == nil {
		t.Fatal("out-of-universe event accepted")
	}
	sub := &pubsub.Subscription{Constraints: []pubsub.Constraint{{ID: outsideID, HasLo: true, Lo: 1}}}
	if _, _, err := scheme.QueryVectors(sub); err == nil {
		t.Fatal("out-of-universe subscription accepted")
	}
}

func TestCiphertextsDifferFromPlain(t *testing.T) {
	// Sanity: the stored vectors are not the plaintext encodings
	// (queries include a random positive scale and M⁻¹).
	schema, ids := buildUniverse(t, "x")
	scheme, err := NewScheme(schema, ids, 42)
	if err != nil {
		t.Fatal(err)
	}
	sub := &pubsub.Subscription{Constraints: []pubsub.Constraint{{ID: ids[0], HasLo: true, Lo: 5}}}
	v1, _, err := scheme.QueryVectors(sub)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := scheme.QueryVectors(sub)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range v1[0] {
		if v1[0][i] != v2[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two encryptions of the same query are identical (no randomisation)")
	}
}

func TestMatchEncryptedDimensionCheck(t *testing.T) {
	_, store := newTestMatcher(t, false)
	if _, err := store.MatchEncoded(&EncodedPublication{Dim: 3, Point: make([]float64, 3)}, nil); err == nil {
		t.Fatal("wrong-dimension point accepted")
	}
}

// BenchmarkAblationBloomPrefilter isolates the DEBS'12 pre-filtering
// gain inside the ASPE baseline: 3,000 e100a1 subscriptions over the
// 11-attribute quote universe, one encrypted publication scanned per
// iteration.
func BenchmarkAblationBloomPrefilter(b *testing.B) {
	qs, err := workload.NewQuoteSet(1, 100, 250)
	if err != nil {
		b.Fatal(err)
	}
	wspec, err := workload.SpecByName("e100a1")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		prefilter bool
	}{
		{"prefilter", true},
		{"no-prefilter", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			schema, ids := buildUniverse(b, workload.QuoteAttrs(1)...)
			scheme, err := NewScheme(schema, ids, 5)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := workload.NewGenerator(wspec, qs, 17)
			if err != nil {
				b.Fatal(err)
			}
			events := make([]*pubsub.Event, 0, 64)
			for _, p := range gen.Publications(64) {
				ev, err := p.Intern(schema)
				if err != nil {
					b.Fatal(err)
				}
				events = append(events, ev)
			}
			if err := scheme.CalibrateScales(events); err != nil {
				b.Fatal(err)
			}
			store := NewStore(simmem.NewPlainAccessor(simmem.DefaultCost()), Options{Prefilter: tc.prefilter})
			if err := store.Configure(scheme.Dim()); err != nil {
				b.Fatal(err)
			}
			for _, s := range gen.Subscriptions(3_000) {
				sub, err := pubsub.Normalize(schema, s)
				if err != nil {
					b.Fatal(err)
				}
				register(b, scheme, store, sub)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match(b, scheme, store, events[i%len(events)])
			}
		})
	}
}
