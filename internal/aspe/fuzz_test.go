package aspe

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecodeSubscription hammers the registration-blob parser with
// arbitrary bytes: it must never panic or over-allocate, anything it
// accepts must re-encode to the identical blob (the round-trip the
// router's seal/restore path relies on — logged blobs replay through
// the same decoder), and must hold at least one vector, every component
// finite.
func FuzzDecodeSubscription(f *testing.F) {
	es := &EncodedSubscription{
		Dim:     6,
		Vectors: [][]float64{{1, 2, 3, 4, 5, 6}, {0.5, -1, 0, 7, 1e-9, 2}},
		QNorm:   9.25,
		HasEq:   true,
	}
	es.Filter[0] = 0xdeadbeef
	seed, err := AppendSubscription(nil, es)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	es.Vectors[1][3] = math.NaN()
	nan, err := AppendSubscription(nil, es)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nan)
	f.Add([]byte{subMagic, codecVer})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := DecodeSubscription(raw)
		if err != nil {
			return
		}
		if len(dec.Vectors) == 0 {
			t.Fatal("accepted a subscription without vectors")
		}
		for _, v := range dec.Vectors {
			requireFinite(t, v)
		}
		out, err := AppendSubscription(nil, dec)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("round trip diverged: %d bytes in, %d out", len(raw), len(out))
		}
	})
}

// FuzzDecodePublication is the same property for header blobs: the
// router's only parser for them, and they carry no MAC.
func FuzzDecodePublication(f *testing.F) {
	ep := &EncodedPublication{Dim: 4, Point: []float64{1, -2, math.Pi, 0}}
	ep.Filter[2] = 42
	seed, err := AppendPublication(nil, ep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	ep.Point[1] = math.Inf(-1)
	inf, err := AppendPublication(nil, ep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inf)
	f.Add([]byte{pubMagic, codecVer, 1, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var dec EncodedPublication
		if err := DecodePublicationInto(raw, &dec); err != nil {
			return
		}
		requireFinite(t, dec.Point)
		out, err := AppendPublication(nil, &dec)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("round trip diverged: %d bytes in, %d out", len(raw), len(out))
		}
	})
}

func requireFinite(t *testing.T, v []float64) {
	t.Helper()
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("accepted component %d = %g", i, x)
		}
	}
}

// TestNonFinitePointMatchesNothing feeds the scan what a connection can
// put in an unauthenticated ASPE header: a point with one NaN or
// infinite component and every Bloom bit set. No sign test fails on a
// NaN product, so if the decoder took it the point would match every
// subscription; it must be refused, and a refused header matches
// nothing.
func TestNonFinitePointMatchesNothing(t *testing.T) {
	bed := newScanBed(t, 4, 21)
	store := bed.store(true)
	for i := 0; i < 180; i++ {
		if _, err := store.Register(bed.rotatingSub(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	dim := bed.scheme.Dim()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, k := range []int{0, dim/2 + 1, dim - 1} {
			ep := bed.event()
			ep.Filter = Bloom{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
			ep.Point[k] = bad
			raw, err := AppendPublication(nil, ep)
			if err != nil {
				t.Fatal(err)
			}
			var dec EncodedPublication
			err = DecodePublicationInto(raw, &dec)
			if err == nil {
				got, err := store.MatchEncoded(&dec, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Fatalf("point with component %d = %g decoded, and matched %d of %d subscriptions", k, bad, len(got), store.Len())
			}
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("component %d = %g: %v, want ErrCodec", k, bad, err)
			}
		}
	}
}

// TestDecodeSubscriptionFailsClosed: a registration blob with a
// non-finite component, or with no vector at all (the AND of no tests
// matches every event), is refused.
func TestDecodeSubscriptionFailsClosed(t *testing.T) {
	es := &EncodedSubscription{Dim: 4, Vectors: [][]float64{{1, 2, 3, 4}, {-1, 0, 0.5, 2}}, QNorm: 2}
	for _, tc := range []struct {
		name string
		edit func(*EncodedSubscription)
	}{
		{"NaN", func(es *EncodedSubscription) { es.Vectors[1][2] = math.NaN() }},
		{"+Inf", func(es *EncodedSubscription) { es.Vectors[0][0] = math.Inf(1) }},
		{"-Inf", func(es *EncodedSubscription) { es.Vectors[1][3] = math.Inf(-1) }},
		{"no vectors", func(es *EncodedSubscription) { es.Vectors = nil }},
	} {
		bad := *es
		bad.Vectors = [][]float64{append([]float64(nil), es.Vectors[0]...), append([]float64(nil), es.Vectors[1]...)}
		tc.edit(&bad)
		raw, err := AppendSubscription(nil, &bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSubscription(raw); !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: decode returned %v, want ErrCodec", tc.name, err)
		}
	}
	raw, err := AppendSubscription(nil, es)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSubscription(raw); err != nil {
		t.Fatalf("the unedited blob: %v", err)
	}
}

// TestSubscriptionCodecRoundTrip pins the exact-field round trip on a
// representative encoding (the fuzz seeds only check re-encoding).
func TestSubscriptionCodecRoundTrip(t *testing.T) {
	es := &EncodedSubscription{
		Dim:     8,
		Vectors: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}},
		QNorm:   3.5,
		HasEq:   false,
	}
	raw, err := AppendSubscription(nil, es)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSubscription(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Dim != es.Dim || dec.QNorm != es.QNorm || dec.HasEq != es.HasEq ||
		len(dec.Vectors) != 1 || dec.Filter != es.Filter {
		t.Fatalf("decoded %+v", dec)
	}
	for i, v := range dec.Vectors[0] {
		if v != es.Vectors[0][i] {
			t.Fatalf("vector[%d] = %g", i, v)
		}
	}
}
