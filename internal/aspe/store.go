package aspe

import (
	"encoding/binary"
	"fmt"
	"math"

	"scbr/internal/simmem"
)

// Match identifies one matching subscription of a Store scan.
type Match struct {
	SubID     uint64
	ClientRef uint32
}

// entry is the store-side handle of one registered subscription.
type entry struct {
	id      uint64
	ref     uint32
	vecOffs []uint64 // arena offsets, one ciphertext vector each
	qNorm   float64
	filter  Bloom
	hasEq   bool
}

// Store is the router-side half of the ASPE scheme: it keeps encrypted
// query vectors in a metered arena and scans them against encrypted
// points. It never holds the scheme's secret matrices — the dimension
// (its only parameter) arrives with provisioning as a public scheme
// parameter.
//
// Not safe for concurrent use; the broker serialises entries per
// partition, exactly as it does for the containment engine.
type Store struct {
	acc  simmem.Accessor
	opts Options
	dim  int // 0 until Configure

	subs   []entry
	index  map[uint64]int // subscription ID → subs slot
	nextID uint64

	// vec is the decode scratch for one ciphertext vector.
	vec []float64
	// pNorms and alive are MatchEncodedBatch scratch: per-item point
	// norms and per-item liveness during the shared database walk.
	pNorms []float64
	alive  []bool
}

// NewStore builds an unconfigured store over the accessor.
func NewStore(acc simmem.Accessor, opts Options) *Store {
	return &Store{acc: acc, opts: opts, index: make(map[uint64]int)}
}

// Configure fixes the vector dimensionality. Idempotent for the same
// dimension; changing it is only allowed while the store is empty
// (a re-provisioned universe invalidates every stored vector).
func (s *Store) Configure(dim int) error {
	if dim <= 0 || dim > MaxDim {
		return fmt.Errorf("aspe: dimension %d out of range", dim)
	}
	if s.dim == dim {
		return nil
	}
	if len(s.subs) > 0 {
		return fmt.Errorf("aspe: cannot re-dimension a store holding %d subscriptions (%d → %d)", len(s.subs), s.dim, dim)
	}
	s.dim = dim
	return nil
}

// Dim returns the configured dimensionality (0 before Configure).
func (s *Store) Dim() int { return s.dim }

// Len returns the number of registered subscriptions.
func (s *Store) Len() int { return len(s.subs) }

// Bytes returns the arena footprint, including garbage from
// unregistered entries (bump allocation, as in the engine).
func (s *Store) Bytes() uint64 { return s.acc.Size() }

// Accessor exposes the store's metered memory.
func (s *Store) Accessor() simmem.Accessor { return s.acc }

// Meter exposes the store's cycle meter.
func (s *Store) Meter() *simmem.Meter { return s.acc.Meter() }

// vecBytes is the ciphertext size of one query vector.
func (s *Store) vecBytes() int { return s.dim * 8 }

// Register stores an encoded subscription under a fresh ID.
func (s *Store) Register(es *EncodedSubscription, clientRef uint32) (uint64, error) {
	id := s.nextID + 1
	if err := s.insert(es, clientRef, id); err != nil {
		return 0, err
	}
	s.nextID = id
	return id, nil
}

// RegisterAssigned stores an encoded subscription under a
// caller-chosen ID — the state-restore path. The ID must be unused.
func (s *Store) RegisterAssigned(es *EncodedSubscription, clientRef uint32, id uint64) error {
	if id == 0 {
		return fmt.Errorf("aspe: subscription ID must be non-zero")
	}
	if _, exists := s.index[id]; exists {
		return fmt.Errorf("aspe: subscription ID %d already registered", id)
	}
	if err := s.insert(es, clientRef, id); err != nil {
		return err
	}
	if id > s.nextID {
		s.nextID = id
	}
	return nil
}

func (s *Store) insert(es *EncodedSubscription, clientRef uint32, id uint64) error {
	if s.dim == 0 {
		return fmt.Errorf("aspe: store not configured (no scheme parameters provisioned)")
	}
	if es.Dim != s.dim {
		return fmt.Errorf("aspe: subscription has dimension %d, store expects %d", es.Dim, s.dim)
	}
	ent := entry{id: id, ref: clientRef, qNorm: es.QNorm, filter: es.Filter, hasEq: es.HasEq}
	buf := make([]byte, s.vecBytes())
	for _, v := range es.Vectors {
		off, err := s.acc.Alloc(len(buf))
		if err != nil {
			return fmt.Errorf("aspe: storing query vector: %w", err)
		}
		for i, x := range v {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
		}
		s.acc.Write(off, buf)
		ent.vecOffs = append(ent.vecOffs, off)
	}
	s.index[id] = len(s.subs)
	s.subs = append(s.subs, ent)
	return nil
}

// Unregister removes a subscription. Its arena vectors become garbage
// (bump allocation), exactly like unlinked engine records.
func (s *Store) Unregister(id uint64) error {
	slot, ok := s.index[id]
	if !ok {
		return fmt.Errorf("aspe: unknown subscription %d", id)
	}
	last := len(s.subs) - 1
	if slot != last {
		s.subs[slot] = s.subs[last]
		s.index[s.subs[slot].id] = slot
	}
	s.subs = s.subs[:last]
	delete(s.index, id)
	return nil
}

// MatchEncoded scans the database with an encoded publication,
// appending matches to out.
func (s *Store) MatchEncoded(ep *EncodedPublication, out []Match) ([]Match, error) {
	if s.dim == 0 {
		return nil, fmt.Errorf("aspe: store not configured (no scheme parameters provisioned)")
	}
	if ep.Dim != s.dim {
		return nil, fmt.Errorf("aspe: point has dimension %d, store expects %d", ep.Dim, s.dim)
	}
	cost := s.acc.Meter().Cost
	pNorm := PointNorm(ep.Point)
	if cap(s.vec) < s.dim {
		s.vec = make([]float64, s.dim)
	}
	for si := range s.subs {
		ent := &s.subs[si]
		if s.opts.Prefilter && ent.hasEq {
			// Bloom subset test: a handful of word ops.
			s.acc.Charge(uint64(bloomWords) * 2)
			if !ent.filter.subsetOf(&ep.Filter) {
				continue
			}
		}
		tol := toleranceFor(s.dim, pNorm, ent.qNorm)
		matched := true
		for _, off := range ent.vecOffs {
			raw := s.acc.Read(off, s.vecBytes())
			vec := s.vec[:s.dim]
			for i := range vec {
				vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			}
			s.acc.Charge(uint64(float64(len(vec)) * cost.MulAddCycles))
			if Dot(ep.Point, vec) < -tol {
				matched = false
				break
			}
		}
		if matched {
			out = append(out, Match{SubID: ent.id, ClientRef: ent.ref})
		}
	}
	return out, nil
}

// MatchEncodedBatch scans the database once for a whole batch of
// encoded publications, appending each item's matches to its out slot.
// eps and out are parallel; nil items are skipped (their slots stay
// untouched), as are items whose dimensionality the store rejects —
// the same items the per-item path would have dropped with an error.
//
// The batch walk inverts the per-item loop: every subscription entry
// is visited once, its ciphertext vectors are read and decoded from
// the metered arena once, and each vector is sign-tested against all
// still-alive items. The arena reads — the dominant metered cost of a
// scan — are amortised across the batch, which is why simulated cost
// grows sub-linearly in batch size; the per-item sign-test and
// prefilter charges are unchanged, so the matched sets are exactly the
// per-item MatchEncoded results.
func (s *Store) MatchEncodedBatch(eps []*EncodedPublication, out [][]Match) error {
	if s.dim == 0 {
		return fmt.Errorf("aspe: store not configured (no scheme parameters provisioned)")
	}
	if len(out) < len(eps) {
		return fmt.Errorf("aspe: batch result slots %d < publications %d", len(out), len(eps))
	}
	cost := s.acc.Meter().Cost
	if cap(s.vec) < s.dim {
		s.vec = make([]float64, s.dim)
	}
	if cap(s.pNorms) < len(eps) {
		s.pNorms = make([]float64, len(eps))
		s.alive = make([]bool, len(eps))
	}
	pNorms, alive := s.pNorms[:len(eps)], s.alive[:len(eps)]
	for i, ep := range eps {
		if ep == nil || ep.Dim != s.dim {
			eps[i] = nil // dimension mismatch: dropped, like the per-item error
			continue
		}
		pNorms[i] = PointNorm(ep.Point)
	}
	for si := range s.subs {
		ent := &s.subs[si]
		live := 0
		for i, ep := range eps {
			if ep == nil {
				alive[i] = false
				continue
			}
			ok := true
			if s.opts.Prefilter && ent.hasEq {
				// Bloom subset test: a handful of word ops, per item.
				s.acc.Charge(uint64(bloomWords) * 2)
				ok = ent.filter.subsetOf(&ep.Filter)
			}
			alive[i] = ok
			if ok {
				live++
			}
		}
		if live == 0 {
			continue
		}
		for _, off := range ent.vecOffs {
			raw := s.acc.Read(off, s.vecBytes())
			vec := s.vec[:s.dim]
			for i := range vec {
				vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			}
			for i, ep := range eps {
				if !alive[i] {
					continue
				}
				s.acc.Charge(uint64(float64(len(vec)) * cost.MulAddCycles))
				if Dot(ep.Point, vec) < -toleranceFor(s.dim, pNorms[i], ent.qNorm) {
					alive[i] = false
					live--
				}
			}
			if live == 0 {
				break
			}
		}
		for i := range eps {
			if alive[i] {
				out[i] = append(out[i], Match{SubID: ent.id, ClientRef: ent.ref})
			}
		}
	}
	return nil
}

// toleranceFor is the sign-test threshold for a (point, query) pair at
// dimensionality n: products above the negated bound count as ≥ 0. The
// rounding-error model ε·n·‖E(p)‖·‖E(q)‖ with ~10⁴× headroom over
// machine epsilon; see Scheme.Tolerance.
func toleranceFor(n int, pointNorm, queryNorm float64) float64 {
	return 1e-12 * float64(n) * (1 + pointNorm) * (1 + queryNorm)
}
