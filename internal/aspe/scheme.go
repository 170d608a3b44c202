package aspe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"

	"scbr/internal/pubsub"
)

// Scheme fixes the attribute universe and holds the secret matrices.
// Vector layout (dimension n = 2d+2 for d attributes):
//
//	0..d-1   attribute values (hashed for strings, 0 when absent)
//	d..2d-1  presence bits (1 when the attribute is present)
//	2d       constant 1
//	2d+1     random component (no query ever selects it; it exists to
//	         blind the ciphertext, as in Wong et al.)
//
// A constraint l ≤ v_i ≤ u becomes up to three sign tests:
//
//	lower:     v_i − l        ≥ 0   (if a lower bound exists)
//	upper:     u  − v_i       ≥ 0   (if an upper bound exists)
//	presence:  b_i − 1        ≥ 0
//
// each expressed as a query vector q̂ with E(q) = M⁻¹·(r·q̂), r > 0
// random per vector, matched against E(p) = Mᵀ·p̂ via Dot ≥ −tolerance.
// A subscription stores every constraint's bound tests first and every
// presence test after them, both in constraint order. The tests are
// ANDed, so the order decides no match, only cost: the store stops
// reading a subscription's vectors once no event is still live on it,
// and a presence test refuses only events that lack the attribute,
// while a bound test refuses every event outside its range. An event
// that lacks an attribute whose bound admits 0 (volume ≤ 50) passes
// the bounds and is refused by the presence test.
type Scheme struct {
	schema *pubsub.Schema
	index  map[pubsub.AttrID]int
	attrs  []pubsub.AttrID
	scales []float64
	frozen bool
	n      int
	m      *Matrix
	mInv   *Matrix
	rng    *rand.Rand
}

// hashMod bounds the normalised string-hash domain. Strings map to
// hash/hashMod ∈ [0, 1); 10⁷ slots keep the collision probability for
// a 500-symbol corpus near 1% while the 10⁻⁷ granularity stays orders
// of magnitude above the sign-test tolerance.
const hashMod = 10_000_000

// NewScheme builds a scheme over the given attribute universe.
// Publications and subscriptions may only reference these attributes —
// ASPE's fixed-dimensionality requirement (its space cost grows with
// the attribute count, the "space complexity grows exponentially with
// the number of attributes" drawback cited in the paper's intro for
// multi-dimensional variants).
func NewScheme(schema *pubsub.Schema, attrs []pubsub.AttrID, seed int64) (*Scheme, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("aspe: empty attribute universe")
	}
	s := &Scheme{
		schema: schema,
		index:  make(map[pubsub.AttrID]int, len(attrs)),
		attrs:  append([]pubsub.AttrID(nil), attrs...),
		rng:    rand.New(rand.NewSource(seed)),
	}
	for i, id := range attrs {
		if _, dup := s.index[id]; dup {
			return nil, fmt.Errorf("aspe: duplicate attribute %d in universe", id)
		}
		s.index[id] = i
	}
	s.scales = make([]float64, len(attrs))
	for i := range s.scales {
		s.scales[i] = 1
	}
	d := len(attrs)
	s.n = 2*d + 2
	s.m = NewRandomInvertible(s.rng, s.n)
	inv, err := s.m.Inverse()
	if err != nil {
		return nil, fmt.Errorf("aspe: building scheme: %w", err)
	}
	s.mInv = inv
	return s, nil
}

// Dim returns the vector dimensionality n.
func (s *Scheme) Dim() int { return s.n }

// KeyID fingerprints everything that fixes the meaning of this
// scheme's encodings: the attribute layout, the public scales, and the
// secret matrices. Two schemes with equal KeyIDs produce mutually
// matchable ciphertexts; a store provisioned under one KeyID must
// reject re-provisioning under another while it holds vectors (their
// dot products against the new scheme's points would be noise). A
// SHA-256 digest of the secrets is safe to publish — it reveals
// nothing invertible about the matrices.
func (s *Scheme) KeyID() string {
	h := sha256.New()
	for _, id := range s.attrs {
		name, _ := s.schema.Name(id)
		_, _ = io.WriteString(h, name)
		h.Write([]byte{0})
	}
	var buf [8]byte
	for _, sc := range s.scales {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(sc))
		h.Write(buf[:])
	}
	for _, v := range s.m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// NumAttrs returns the size of the attribute universe d.
func (s *Scheme) NumAttrs() int { return len(s.attrs) }

// valueScalar maps a value into the comparison domain: numeric values
// compare as float64; strings hash to a normalised slot in [0, 1),
// preserving equality (the only operator strings support).
func valueScalar(v pubsub.Value) float64 {
	if v.Numeric() {
		return v.AsFloat()
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(v.S))
	return float64(h.Sum64()%hashMod) / hashMod
}

// SetScale fixes the normalisation divisor of one numeric attribute.
// ASPE mixes attributes of wildly different magnitudes (cent-priced
// quotes next to nine-digit volumes) in one vector space, so without
// per-attribute scaling the floating-point tolerance of the sign test
// would be dominated by the largest attribute and misclassify narrow
// margins on the smallest — the practical deployment issue scalar-
// product schemes are known for. Scales are public parameters (they
// leak only coarse magnitude information) and must be set before the
// first encryption.
func (s *Scheme) SetScale(id pubsub.AttrID, scale float64) error {
	if s.frozen {
		return fmt.Errorf("aspe: scales are frozen after first encryption")
	}
	i, ok := s.index[id]
	if !ok {
		return fmt.Errorf("aspe: attribute %d outside scheme universe", id)
	}
	if scale <= 0 {
		return fmt.Errorf("aspe: scale must be positive, got %g", scale)
	}
	s.scales[i] = scale
	return nil
}

// CalibrateScales sets each numeric attribute's scale to the largest
// absolute value observed across the sample events (minimum 1).
func (s *Scheme) CalibrateScales(sample []*pubsub.Event) error {
	for _, ev := range sample {
		for _, a := range ev.Attrs {
			i, ok := s.index[a.ID]
			if !ok || !a.Value.Numeric() {
				continue
			}
			if v := absFloat(a.Value.AsFloat()); v > s.scales[i] {
				if s.frozen {
					return fmt.Errorf("aspe: scales are frozen after first encryption")
				}
				s.scales[i] = v
			}
		}
	}
	return nil
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// EncryptPoint encodes and encrypts a publication. The returned
// ciphertext is what the untrusted ASPE filter stores and matches on.
func (s *Scheme) EncryptPoint(ev *pubsub.Event) ([]float64, error) {
	s.frozen = true
	d := len(s.attrs)
	p := make([]float64, s.n)
	for _, a := range ev.Attrs {
		i, ok := s.index[a.ID]
		if !ok {
			return nil, fmt.Errorf("aspe: attribute %d outside scheme universe", a.ID)
		}
		if a.Value.Numeric() {
			p[i] = a.Value.AsFloat() / s.scales[i]
		} else {
			p[i] = valueScalar(a.Value)
		}
		p[d+i] = 1
	}
	p[2*d] = 1
	p[2*d+1] = s.rng.Float64() // blinding component
	out := make([]float64, s.n)
	s.m.TMulVec(out, p)
	return out, nil
}

// QueryVectors builds the encrypted sign-test vectors for one
// normalised subscription: every bound test in constraint order, then
// every presence test in constraint order (see Scheme). The returned
// norm is the largest ciphertext vector norm; the matcher scales its
// sign-test tolerance with it (and with the point norm) to absorb the
// floating-point noise of M·M⁻¹ on boundary (exact-equality) products.
func (s *Scheme) QueryVectors(sub *pubsub.Subscription) ([][]float64, float64, error) {
	s.frozen = true
	nvec := 0
	for _, c := range sub.Constraints {
		if _, ok := s.index[c.ID]; !ok {
			return nil, 0, fmt.Errorf("aspe: attribute %d outside scheme universe", c.ID)
		}
		switch {
		case c.Str && c.Prefix:
			// Prefix matching needs prefix-preserving encryption (Li
			// et al.), which plain ASPE does not provide — one of the
			// expressiveness gaps the paper holds against software-
			// only schemes.
			return nil, 0, fmt.Errorf("aspe: prefix constraints are not expressible (attribute %d)", c.ID)
		case c.Str:
			nvec += 3
		default:
			nvec++
			if c.HasLo {
				nvec++
			}
			if c.HasHi {
				nvec++
			}
		}
	}
	d := len(s.attrs)
	out := make([][]float64, 0, nvec)
	maxNorm := 0.0
	q := make([]float64, s.n)
	// seal encrypts the plaintext test in q, appends it to out and
	// clears q for the next one.
	seal := func() {
		r := 0.5 + s.rng.Float64() // positive random scale
		for j := range q {
			q[j] *= r
		}
		enc := make([]float64, s.n)
		s.mInv.MulVec(enc, q)
		out = append(out, enc)
		maxNorm = max(maxNorm, norm2(enc))
		clear(q)
	}
	for _, c := range sub.Constraints {
		i := s.index[c.ID]
		if c.Str {
			// Equality via [h, h].
			h := valueScalar(pubsub.Str(c.EqS))
			q[i], q[2*d] = 1, -h
			seal()
			q[i], q[2*d] = -1, h
			seal()
			continue
		}
		if c.HasLo {
			// v_i − l ≥ 0 (closed; ASPE cannot express strictness).
			q[i], q[2*d] = 1, -c.Lo/s.scales[i]
			seal()
		}
		if c.HasHi {
			// u − v_i ≥ 0.
			q[i], q[2*d] = -1, c.Hi/s.scales[i]
			seal()
		}
	}
	for _, c := range sub.Constraints {
		// Presence test: b_i − 1 ≥ 0.
		q[d+s.index[c.ID]], q[2*d] = 1, -1
		seal()
	}
	return out, maxNorm, nil
}

// Tolerance returns the sign-test threshold for a (point, query) pair:
// products above −Tolerance count as ≥ 0. The bound follows the
// rounding-error model ε·n·‖E(p)‖·‖E(q)‖ with ~10⁴× headroom over
// machine epsilon; with calibrated scales the smallest genuine margins
// (one hash slot, one cent of a scaled price) sit several orders of
// magnitude above it.
func (s *Scheme) Tolerance(pointNorm, queryNorm float64) float64 {
	return toleranceFor(s.n, pointNorm, queryNorm)
}

// EncodeSubscription builds the complete registration-side form of one
// normalised subscription: encrypted query vectors plus the DEBS'12
// Bloom pre-filter over its equality constraints. This is what the
// publisher ships to an untrusted ASPE store.
func (s *Scheme) EncodeSubscription(sub *pubsub.Subscription) (*EncodedSubscription, error) {
	vecs, qNorm, err := s.QueryVectors(sub)
	if err != nil {
		return nil, err
	}
	filter, hasEq := subscriptionFilter(sub.Constraints)
	return &EncodedSubscription{
		Dim:     s.n,
		Vectors: vecs,
		QNorm:   qNorm,
		Filter:  filter,
		HasEq:   hasEq,
	}, nil
}

// EncodePublication builds the complete publication-side form of one
// event: the encrypted point plus its Bloom filter.
func (s *Scheme) EncodePublication(ev *pubsub.Event) (*EncodedPublication, error) {
	point, err := s.EncryptPoint(ev)
	if err != nil {
		return nil, err
	}
	return &EncodedPublication{Dim: s.n, Point: point, Filter: publicationFilter(ev)}, nil
}

// PointNorm exposes the ciphertext norm of an encrypted point.
func PointNorm(p []float64) float64 { return norm2(p) }

func norm2(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}
