package aspe

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"

	"scbr/internal/pubsub"
)

// BloomBits is the pre-filter size per subscription (DEBS'12 uses
// small per-subscription filters; 256 bits keeps the publication-side
// filter unsaturated even for ×4-attribute events).
const BloomBits = 256

const bloomWords = BloomBits / 64

// Bloom is a fixed-size Bloom filter over (attribute, value) pairs.
type Bloom [bloomWords]uint64

func (b *Bloom) add(id pubsub.AttrID, v float64) {
	h1, h2 := bloomHashes(id, v)
	b[(h1/64)%bloomWords] |= 1 << (h1 % 64)
	b[(h2/64)%bloomWords] |= 1 << (h2 % 64)
}

// setBits yields the positions of the filter's set bits in ascending
// order (a range-over-func iterator).
func (b *Bloom) setBits(yield func(int) bool) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			if !yield(w*64 + bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

func bloomHashes(id pubsub.AttrID, v float64) (uint32, uint32) {
	h := fnv.New64a()
	var buf [10]byte
	binary.LittleEndian.PutUint16(buf[:2], uint16(id))
	binary.LittleEndian.PutUint64(buf[2:], math.Float64bits(v))
	_, _ = h.Write(buf[:])
	sum := h.Sum64()
	return uint32(sum % BloomBits), uint32((sum >> 32) % BloomBits)
}

// Options configure a Store.
type Options struct {
	// Prefilter enables the DEBS'12 Bloom pre-filtering of equality
	// constraints. Disabling it gives the plain ASPE baseline (used by
	// the ablation bench).
	Prefilter bool
}

// subscriptionFilter builds the registration-side Bloom filter over a
// subscription's equality constraints.
func subscriptionFilter(cs []pubsub.Constraint) (Bloom, bool) {
	var f Bloom
	hasEq := false
	for _, c := range cs {
		if !c.IsEquality() {
			continue
		}
		hasEq = true
		if c.Str {
			f.add(c.ID, valueScalar(pubsub.Str(c.EqS)))
		} else {
			f.add(c.ID, c.Lo)
		}
	}
	return f, hasEq
}

// publicationFilter builds the publication-side Bloom filter over an
// event's attribute values.
func publicationFilter(ev *pubsub.Event) Bloom {
	var f Bloom
	for _, a := range ev.Attrs {
		f.add(a.ID, valueScalar(a.Value))
	}
	return f
}
