package scheme

import (
	"errors"
	"math"
	"testing"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	want := map[string]bool{Plain: false, ASPE: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("builtin scheme %q not registered (have %v)", n, names)
		}
	}
	if _, err := Lookup("no-such-scheme"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown lookup err = %v", err)
	}
	// The empty name canonicalises to the default.
	b, err := Lookup("")
	if err != nil || b.Name != Plain {
		t.Fatalf("Lookup(\"\") = %v, %v", b, err)
	}
	if Canonical("") != Plain || Canonical(ASPE) != ASPE {
		t.Fatal("Canonical misbehaves")
	}
}

func TestCapabilities(t *testing.T) {
	plain, err := Lookup(Plain)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Caps.SealedExchange || !plain.Caps.FederationDigests || !plain.Caps.PrefixConstraints {
		t.Fatalf("plain caps = %+v", plain.Caps)
	}
	aspe, err := Lookup(ASPE)
	if err != nil {
		t.Fatal(err)
	}
	if aspe.Caps.SealedExchange || aspe.Caps.FederationDigests || aspe.Caps.PrefixConstraints {
		t.Fatalf("aspe caps = %+v", aspe.Caps)
	}
}

func subSpec(limit float64) pubsub.SubscriptionSpec {
	return pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str("HAL")},
		{Attr: "price", Op: pubsub.OpLt, Value: pubsub.Float(limit)},
	}}
}

func event(price float64) pubsub.EventSpec {
	return pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str("HAL")},
		{Name: "price", Value: pubsub.Float(price)},
	}}
}

// roundTrip drives one codec/slice pair through register → match →
// unregister, asserting the match outcomes.
func roundTrip(t *testing.T, name string, opts ...Option) {
	t.Helper()
	backend, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := backend.NewCodec(Resolve(opts))
	if err != nil {
		t.Fatal(err)
	}
	if codec.Name() != backend.Name {
		t.Fatalf("codec name %q, backend %q", codec.Name(), backend.Name)
	}
	slice, err := backend.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), pubsub.NewSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params, err := codec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if err := slice.Configure(params); err != nil {
		t.Fatal(err)
	}
	enc, err := codec.EncodeSubscription(subSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	const id = 1
	if err := slice.RegisterEncodedAssigned(enc, 7, id); err != nil {
		t.Fatal(err)
	}
	if st := slice.Stats(); st.Subscriptions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	match := func(price float64) []core.MatchResult {
		blob, err := codec.EncodeEvent(event(price))
		if err != nil {
			t.Fatal(err)
		}
		return matchOne(t, slice, blob)
	}
	if got := match(42); len(got) != 1 || got[0].SubID != id || got[0].ClientRef != 7 {
		t.Fatalf("matching event → %v, want [{%d 7}]", got, id)
	}
	if err := slice.RegisterEncodedAssigned(enc, 8, id); err == nil {
		t.Fatal("a second registration under a live ID accepted")
	}
	if got := match(60); len(got) != 0 {
		t.Fatalf("non-matching event → %v", got)
	}
	if err := slice.Unregister(id); err != nil {
		t.Fatal(err)
	}
	if got := match(42); len(got) != 0 {
		t.Fatalf("match after unregister → %v", got)
	}
	// Restore path: the same encoding replays under its original ID.
	if err := slice.RegisterEncodedAssigned(enc, 7, id); err != nil {
		t.Fatal(err)
	}
	if got := match(42); len(got) != 1 || got[0].SubID != id {
		t.Fatalf("match after assigned re-register → %v", got)
	}
}

func TestPlainRoundTrip(t *testing.T) { roundTrip(t, Plain) }

// plainSlice returns a fresh sgx-plain codec and slice.
func plainSlice(t *testing.T) (Codec, Slice) {
	t.Helper()
	backend, err := Lookup(Plain)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := backend.NewCodec(Resolve(nil))
	if err != nil {
		t.Fatal(err)
	}
	slice, err := backend.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), pubsub.NewSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return codec, slice
}

// TestNaNPublicationMatchesNothing: no bound rejects a NaN, so an
// sgx-plain header carrying one is refused at decode, alone or in a
// batch, rather than matching every range on its attribute. An
// infinite price is an ordinary value.
func TestNaNPublicationMatchesNothing(t *testing.T) {
	codec, slice := plainSlice(t)
	for i, spec := range []pubsub.SubscriptionSpec{
		{Predicates: []pubsub.Predicate{{Attr: "price", Op: pubsub.OpBetween, Value: pubsub.Float(20), Hi: pubsub.Float(30)}}},
		{Predicates: []pubsub.Predicate{{Attr: "price", Op: pubsub.OpGt, Value: pubsub.Float(20)}}},
		subSpec(50),
	} {
		enc, err := codec.EncodeSubscription(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := slice.RegisterEncodedAssigned(enc, 1, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	header := func(price float64) []byte {
		blob, err := codec.EncodeEvent(event(price))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	nan := header(math.NaN())
	if err := pubsub.DecodeEventInto(pubsub.NewSchema(), nan, new(pubsub.Event)); !errors.Is(err, pubsub.ErrCodec) {
		t.Fatalf("decoding a NaN price: %v, want an ErrCodec", err)
	}
	// Alone, the NaN item contributes nothing; beside valid items it
	// still contributes nothing, and they match as they would alone.
	if got := matchOne(t, slice, nan); len(got) != 0 {
		t.Fatalf("NaN price alone matched %v; want nothing", got)
	}
	out := make([][]core.MatchResult, 3)
	if err := slice.MatchEncodedBatch([][]byte{header(25), nan, header(math.Inf(1))}, out); err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 3 || len(out[1]) != 0 || len(out[2]) != 1 {
		t.Fatalf("batch [25, NaN, +Inf] matched %d, %d, %d subscriptions; want 3, 0, 1", len(out[0]), len(out[1]), len(out[2]))
	}
	if _, err := pubsub.NewEvent(pubsub.NewSchema(), map[string]pubsub.Value{"price": pubsub.Float(math.NaN())}); !errors.Is(err, pubsub.ErrCodec) {
		t.Fatalf("NewEvent with a NaN price: %v, want an ErrCodec", err)
	}
}

// TestNaNBoundRefused: a subscription with a NaN bound would bound
// nothing, so the sgx-plain codec refuses to encode one, and a slice
// refuses one that reaches it encoded anyway, registering nothing.
// Infinite bounds stay legal.
func TestNaNBoundRefused(t *testing.T) {
	codec, slice := plainSlice(t)
	nan := pubsub.Float(math.NaN())
	for _, p := range []pubsub.Predicate{
		{Attr: "price", Op: pubsub.OpBetween, Value: nan, Hi: pubsub.Float(30)},
		{Attr: "price", Op: pubsub.OpBetween, Value: pubsub.Float(20), Hi: nan},
		{Attr: "price", Op: pubsub.OpGe, Value: nan},
		{Attr: "price", Op: pubsub.OpLt, Value: nan},
		{Attr: "price", Op: pubsub.OpEq, Value: nan},
	} {
		spec := pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str("HAL")}, p}}
		if _, err := codec.EncodeSubscription(spec); !errors.Is(err, pubsub.ErrCodec) {
			t.Fatalf("%v: EncodeSubscription err %v, want an ErrCodec", p, err)
		}
		if _, err := pubsub.Normalize(pubsub.NewSchema(), spec); !errors.Is(err, pubsub.ErrCodec) {
			t.Fatalf("%v: Normalize err %v, want an ErrCodec", p, err)
		}
		raw, err := pubsub.EncodeSubscriptionSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := slice.RegisterEncodedAssigned(raw, 1, 99); !errors.Is(err, pubsub.ErrCodec) {
			t.Fatalf("%v: RegisterEncodedAssigned err %v, want an ErrCodec", p, err)
		}
	}
	if st := slice.Stats(); st.Subscriptions != 0 {
		t.Fatalf("%d subscriptions registered with a NaN bound", st.Subscriptions)
	}
	enc, err := codec.EncodeSubscription(pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "price", Op: pubsub.OpBetween, Value: pubsub.Float(math.Inf(-1)), Hi: pubsub.Float(30)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := slice.RegisterEncodedAssigned(enc, 1, 99); err != nil {
		t.Fatalf("a -Inf bound: %v", err)
	}
}

func TestASPERoundTrip(t *testing.T) {
	roundTrip(t, ASPE, WithAttrs("symbol", "price"), WithSeed(3), WithScale("price", 100))
}

func TestASPECodecRequiresUniverse(t *testing.T) {
	if _, err := NewCodec(ASPE); err == nil {
		t.Fatal("aspe codec constructed without an attribute universe")
	}
	if _, err := NewCodec(ASPE, WithAttrs("a", "a")); err == nil {
		t.Fatal("aspe codec accepted a duplicate universe")
	}
}

func TestASPEExpressivenessGaps(t *testing.T) {
	codec, err := NewCodec(ASPE, WithAttrs("symbol", "price"), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	// Prefix constraints are not expressible (the capability flag's
	// enforcement at encode time).
	_, err = codec.EncodeSubscription(pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "symbol", Op: pubsub.OpPrefix, Value: pubsub.Str("HA")},
	}})
	if err == nil {
		t.Fatal("aspe encoded a prefix constraint")
	}
	// Attributes outside the fixed universe are rejected.
	_, err = codec.EncodeSubscription(pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "volume", Op: pubsub.OpGt, Value: pubsub.Int(10)},
	}})
	if err == nil {
		t.Fatal("aspe encoded an out-of-universe attribute")
	}
}

func TestASPESliceReconfigure(t *testing.T) {
	backend, err := Lookup(ASPE)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := backend.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := NewCodec(ASPE, WithAttrs("symbol", "price"), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	params, err := codec.Params()
	if err != nil {
		t.Fatal(err)
	}
	// Unconfigured slices reject traffic.
	enc, err := codec.EncodeSubscription(subSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := slice.RegisterEncodedAssigned(enc, 1, 1); err == nil {
		t.Fatal("unconfigured slice accepted a registration")
	}
	if err := slice.Configure(params); err != nil {
		t.Fatal(err)
	}
	if err := slice.Configure(params); err != nil {
		t.Fatalf("idempotent re-configure failed: %v", err)
	}
	if err := slice.RegisterEncodedAssigned(enc, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Re-dimensioning a populated store must fail: its stored vectors
	// would be garbage under the new universe.
	other, err := NewCodec(ASPE, WithAttrs("a", "b", "c"), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	otherParams, err := other.Params()
	if err != nil {
		t.Fatal(err)
	}
	if err := slice.Configure(otherParams); err == nil {
		t.Fatal("populated slice accepted a different dimensionality")
	}
	// Re-keying at the *same* dimensionality must fail too: a publisher
	// restart with fresh matrices would turn every stored vector into
	// noise while the dimension check alone stays silent.
	rekeyed, err := NewCodec(ASPE, WithAttrs("symbol", "price"), WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	rekeyedParams, err := rekeyed.Params()
	if err != nil {
		t.Fatal(err)
	}
	if err := slice.Configure(rekeyedParams); err == nil {
		t.Fatal("populated slice accepted re-provisioning under different matrices")
	}
}
