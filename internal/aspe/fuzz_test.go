package aspe

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeSubscription hammers the registration-blob parser with
// arbitrary bytes: it must never panic or over-allocate, and anything
// it accepts must re-encode to the identical blob (the round-trip the
// router's seal/restore path relies on — logged blobs replay through
// the same decoder).
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
	f.Add([]byte{subMagic, codecVer})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := DecodeSubscription(raw)
		if err != nil {
			return
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

// FuzzDecodePublication is the same property for header blobs.
func FuzzDecodePublication(f *testing.F) {
	ep := &EncodedPublication{Dim: 4, Point: []float64{1, -2, math.Pi, 0}}
	ep.Filter[2] = 42
	seed, err := AppendPublication(nil, ep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{pubMagic, codecVer, 1, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var dec EncodedPublication
		if err := DecodePublicationInto(raw, &dec); err != nil {
			return
		}
		out, err := AppendPublication(nil, &dec)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("round trip diverged: %d bytes in, %d out", len(raw), len(out))
		}
	})
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
