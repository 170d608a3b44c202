package scheme

import (
	"testing"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// measureStore registers n workload subscriptions into a freshly built
// slice and returns the store bytes after a warmup prefix and after all
// n, so callers can difference out the base cost.
func measureStore(t *testing.T, name string, spec workload.Spec, n, warm int) (warmBytes, fullBytes uint64, attrs int, avgEnc float64) {
	t.Helper()
	qs, err := workload.NewQuoteSet(1, 60, 40)
	if err != nil {
		t.Fatalf("quote set: %v", err)
	}
	gen, err := workload.NewGenerator(spec, qs, 7)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	universe := workload.QuoteAttrs(spec.AttrFactor)
	codec, err := NewCodec(name, WithAttrs(universe...), WithSeed(11))
	if err != nil {
		t.Fatalf("codec: %v", err)
	}
	b, err := Lookup(name)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	slice, err := b.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), pubsub.NewSchema(), core.Options{})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	params, err := codec.Params()
	if err != nil {
		t.Fatalf("params: %v", err)
	}
	if err := slice.Configure(params); err != nil {
		t.Fatalf("configure: %v", err)
	}
	encTotal := 0
	for i, sub := range gen.Subscriptions(n) {
		enc, err := codec.EncodeSubscription(sub)
		if err != nil {
			t.Fatalf("encode sub %d: %v", i, err)
		}
		encTotal += len(enc)
		if err := slice.RegisterEncodedAssigned(enc, uint32(i), uint64(i)+1); err != nil {
			t.Fatalf("register sub %d: %v", i, err)
		}
		if i+1 == warm {
			warmBytes = slice.Stats().Bytes
		}
	}
	return warmBytes, slice.Stats().Bytes, len(universe), float64(encTotal) / float64(n)
}

// TestFootprintModelMatchesStores pins the measured footprint constants
// against the stores they model: the per-subscription cost predicted by
// each backend's FootprintModel must stay within tolerance of a live
// store populated with Table 1 workload subscriptions, at two universe
// widths. If a scheme's storage layout changes, this test fails and the
// constants in footprint.go must be re-derived (run with -v for the
// measured values).
func TestFootprintModelMatchesStores(t *testing.T) {
	const (
		n         = 2000
		warm      = 500
		tolerance = 0.25
	)
	specA1, err := workload.SpecByName("e80a1")
	if err != nil {
		t.Fatal(err)
	}
	specA4, err := workload.SpecByName("e80a4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scheme string
		model  FootprintModel
	}{
		{Plain, PlainFootprint},
		{ASPE, ASPEFootprint},
	} {
		for _, spec := range []workload.Spec{specA1, specA4} {
			warmBytes, fullBytes, attrs, avgEnc := measureStore(t, tc.scheme, spec, n, warm)
			measured := float64(fullBytes-warmBytes) / float64(n-warm)
			predicted := float64(tc.model.PerSubscription(attrs))
			t.Logf("%s/%s: universe=%d attrs, measured %.0f B/sub (store %d B @ %d subs, avg enc %.0f B), model %.0f B/sub",
				tc.scheme, spec.Name, attrs, measured, fullBytes, n, avgEnc, predicted)
			if measured <= 0 {
				t.Fatalf("%s/%s: degenerate measurement %f", tc.scheme, spec.Name, measured)
			}
			ratio := predicted / measured
			if ratio < 1-tolerance || ratio > 1+tolerance {
				t.Errorf("%s/%s: model %.0f B/sub vs measured %.0f B/sub (ratio %.2f outside ±%.0f%%) — re-derive the constants in footprint.go",
					tc.scheme, spec.Name, predicted, measured, ratio, tolerance*100)
			}
		}
	}
}

// TestFootprintModelShape covers the model arithmetic and the
// package-level resolver.
func TestFootprintModelShape(t *testing.T) {
	m := FootprintModel{BaseBytes: 100, SubBytes: 10, SubAttrBytes: 2}
	if got := m.Footprint(0, 11); got != 100 {
		t.Errorf("empty store: got %d, want 100", got)
	}
	if got := m.Footprint(3, 4); got != 100+3*(10+4*2) {
		t.Errorf("footprint: got %d", got)
	}
	if got := m.Footprint(-1, -1); got != 100 {
		t.Errorf("negative inputs: got %d, want 100", got)
	}
	if !(FootprintModel{}).Zero() || m.Zero() {
		t.Error("Zero() misreports")
	}
	if _, err := Footprint("no-such-scheme", 1, 1); err == nil {
		t.Error("unknown scheme: want error")
	}
	got, err := Footprint(Plain, 1000, 11)
	if err != nil {
		t.Fatalf("plain footprint: %v", err)
	}
	if want := PlainFootprint.Footprint(1000, 11); got != want {
		t.Errorf("resolver: got %d, want %d", got, want)
	}
}
