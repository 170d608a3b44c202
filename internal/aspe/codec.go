package aspe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire encodings for the ASPE matching scheme. Unlike the sgx-plain
// scheme — whose registration and header blobs are plaintext encodings
// sealed under SK and opened inside the enclave — ASPE blobs ARE the
// ciphertext: the encrypted query vectors and points of Wong et al.
// The router stores and matches them without ever holding a key, which
// is the software-only deployment the paper compares SGX against.
//
// Layout (all integers little-endian):
//
//	subscription:  magic u8 | version u8 | dim u16 | nvec u16 |
//	               flags u8 | qnorm f64 | bloom [4]u64 | nvec·dim f64
//	publication:   magic u8 | version u8 | dim u16 |
//	               bloom [4]u64 | dim f64
//
// flags: bit0 = the subscription carries equality constraints (its
// Bloom filter participates in pre-filtering).

// Codec framing constants.
const (
	subMagic = 0xA5
	pubMagic = 0xA6
	codecVer = 1

	subFlagHasEq = 1 << 0
)

// MaxDim bounds the vector dimensionality accepted off the wire —
// 2·d+2 for the 16-bit attribute space would already be absurd; this
// keeps a hostile frame from demanding gigabytes.
const MaxDim = 1 << 14

// MaxVectors bounds the sign-test vectors of one subscription (three
// per constraint; one constraint per attribute of a sane universe).
const MaxVectors = 3 * (MaxDim / 2)

// ErrCodec indicates a malformed ASPE wire blob.
var ErrCodec = errors.New("aspe: malformed encoding")

// EncodedSubscription is the decoded form of one registration blob:
// everything the untrusted matcher stores.
type EncodedSubscription struct {
	Dim     int
	Vectors [][]float64
	QNorm   float64
	Filter  Bloom
	HasEq   bool
}

// EncodedPublication is the decoded form of one publication header
// blob: the encrypted point plus its Bloom filter.
type EncodedPublication struct {
	Dim    int
	Point  []float64
	Filter Bloom
}

// AppendSubscription serialises an encoded subscription.
func AppendSubscription(buf []byte, es *EncodedSubscription) ([]byte, error) {
	if es.Dim <= 0 || es.Dim > MaxDim {
		return nil, fmt.Errorf("aspe: dimension %d out of range", es.Dim)
	}
	if len(es.Vectors) > MaxVectors {
		return nil, fmt.Errorf("aspe: %d query vectors exceed the frame bound", len(es.Vectors))
	}
	buf = append(buf, subMagic, codecVer)
	buf = appendU16(buf, uint16(es.Dim))
	buf = appendU16(buf, uint16(len(es.Vectors)))
	var flags uint8
	if es.HasEq {
		flags |= subFlagHasEq
	}
	buf = append(buf, flags)
	buf = appendF64(buf, es.QNorm)
	for _, w := range es.Filter {
		buf = appendU64(buf, w)
	}
	for _, v := range es.Vectors {
		if len(v) != es.Dim {
			return nil, fmt.Errorf("aspe: query vector has dimension %d, want %d", len(v), es.Dim)
		}
		for _, x := range v {
			buf = appendF64(buf, x)
		}
	}
	return buf, nil
}

// DecodeSubscription parses AppendSubscription output. It refuses a
// blob without vectors and any non-finite component, as
// DecodePublicationInto does.
func DecodeSubscription(raw []byte) (*EncodedSubscription, error) {
	hdr := 2 + 2 + 2 + 1 + 8 + 8*bloomWords
	if len(raw) < hdr {
		return nil, fmt.Errorf("%w: subscription blob of %d bytes", ErrCodec, len(raw))
	}
	if raw[0] != subMagic || raw[1] != codecVer {
		return nil, fmt.Errorf("%w: bad subscription magic/version %x.%x", ErrCodec, raw[0], raw[1])
	}
	dim := int(binary.LittleEndian.Uint16(raw[2:]))
	nvec := int(binary.LittleEndian.Uint16(raw[4:]))
	// A subscription with no vector would match every event.
	if dim == 0 || dim > MaxDim || nvec == 0 || nvec > MaxVectors {
		return nil, fmt.Errorf("%w: dim %d / %d vectors", ErrCodec, dim, nvec)
	}
	if raw[6]&^subFlagHasEq != 0 {
		return nil, fmt.Errorf("%w: unknown subscription flags %#x", ErrCodec, raw[6])
	}
	es := &EncodedSubscription{Dim: dim, HasEq: raw[6]&subFlagHasEq != 0}
	es.QNorm = math.Float64frombits(binary.LittleEndian.Uint64(raw[7:]))
	if math.IsNaN(es.QNorm) || math.IsInf(es.QNorm, 0) || es.QNorm < 0 {
		return nil, fmt.Errorf("%w: query norm %g", ErrCodec, es.QNorm)
	}
	pos := 15
	for i := range es.Filter {
		es.Filter[i] = binary.LittleEndian.Uint64(raw[pos:])
		pos += 8
	}
	if want := pos + nvec*dim*8; len(raw) != want {
		return nil, fmt.Errorf("%w: subscription blob is %d bytes, want %d", ErrCodec, len(raw), want)
	}
	es.Vectors = make([][]float64, nvec)
	for i := range es.Vectors {
		v := make([]float64, dim)
		for j := range v {
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("%w: vector %d component %d is %g", ErrCodec, i, j, x)
			}
			v[j] = x
			pos += 8
		}
		es.Vectors[i] = v
	}
	return es, nil
}

// AppendPublication serialises an encoded publication header.
func AppendPublication(buf []byte, ep *EncodedPublication) ([]byte, error) {
	if ep.Dim <= 0 || ep.Dim > MaxDim {
		return nil, fmt.Errorf("aspe: dimension %d out of range", ep.Dim)
	}
	if len(ep.Point) != ep.Dim {
		return nil, fmt.Errorf("aspe: point has dimension %d, want %d", len(ep.Point), ep.Dim)
	}
	buf = append(buf, pubMagic, codecVer)
	buf = appendU16(buf, uint16(ep.Dim))
	for _, w := range ep.Filter {
		buf = appendU64(buf, w)
	}
	for _, x := range ep.Point {
		buf = appendF64(buf, x)
	}
	return buf, nil
}

// DecodePublicationInto parses AppendPublication output, reusing ep's
// point storage: the matching path decodes a whole publish-batch per
// scan and would otherwise allocate a point per item per slice. It
// refuses a non-finite component: no sign test fails on a NaN product,
// so such a point would match every subscription the prefilter lets
// through.
func DecodePublicationInto(raw []byte, ep *EncodedPublication) error {
	hdr := 2 + 2 + 8*bloomWords
	if len(raw) < hdr {
		return fmt.Errorf("%w: publication blob of %d bytes", ErrCodec, len(raw))
	}
	if raw[0] != pubMagic || raw[1] != codecVer {
		return fmt.Errorf("%w: bad publication magic/version %x.%x", ErrCodec, raw[0], raw[1])
	}
	dim := int(binary.LittleEndian.Uint16(raw[2:]))
	if dim == 0 || dim > MaxDim {
		return fmt.Errorf("%w: dim %d", ErrCodec, dim)
	}
	ep.Dim = dim
	pos := 4
	for i := range ep.Filter {
		ep.Filter[i] = binary.LittleEndian.Uint64(raw[pos:])
		pos += 8
	}
	if want := pos + dim*8; len(raw) != want {
		return fmt.Errorf("%w: publication blob is %d bytes, want %d", ErrCodec, len(raw), want)
	}
	if cap(ep.Point) < dim {
		ep.Point = make([]float64, dim)
	}
	ep.Point = ep.Point[:dim]
	for i := range ep.Point {
		x := math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:]))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: point component %d is %g", ErrCodec, i, x)
		}
		ep.Point[i] = x
		pos += 8
	}
	return nil
}

func appendU16(buf []byte, v uint16) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return append(buf, b[:]...)
}

func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func appendF64(buf []byte, v float64) []byte {
	return appendU64(buf, math.Float64bits(v))
}
