package aspe

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The two scans Store.scan replaced, kept as the references its tests
// compare against (like refLLC and core's matchPerEvent): one event or
// one batch at a time, a Bloom subset test, a Dot and a toleranceFor
// per (subscription, event), every cycle charged where it is spent.

// subsetOf reports whether all bits of b are present in p — the
// candidate test: false means the publication cannot satisfy the
// subscription's equality constraints (no false negatives).
func (b *Bloom) subsetOf(p *Bloom) bool {
	for i := range b {
		if b[i]&^p[i] != 0 {
			return false
		}
	}
	return true
}

// filter rebuilds the entry's Bloom filter from its stored bit positions.
func (e *entry) filter(slab []uint64) *Bloom {
	var f Bloom
	for _, pos := range slab[e.start:][:e.nBits] {
		f[pos/64] |= 1 << (pos % 64)
	}
	return &f
}

// readVector reads and decodes one stored ciphertext vector.
func (s *Store) readVector(off uint64) []float64 {
	raw := s.acc.Read(off, s.vecBytes())
	vec := make([]float64, s.dim)
	for i := range vec {
		vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return vec
}

// matchPerItem scans the database with one encoded publication.
func (s *Store) matchPerItem(ep *EncodedPublication, out []Match) ([]Match, error) {
	if s.dim == 0 {
		return nil, fmt.Errorf("aspe: store not configured (no scheme parameters provisioned)")
	}
	if ep.Dim != s.dim {
		return nil, fmt.Errorf("aspe: point has dimension %d, store expects %d", ep.Dim, s.dim)
	}
	cost := s.acc.Meter().Cost
	pNorm := PointNorm(ep.Point)
	for si := range s.subs {
		ent := &s.subs[si]
		if s.opts.Prefilter && ent.hasEq {
			s.acc.Charge(uint64(bloomWords) * 2)
			if !ent.filter(s.slab).subsetOf(&ep.Filter) {
				continue
			}
		}
		tol := pointTolerance(s.dim, pNorm) * ent.qScale // toleranceFor
		matched := true
		for _, off := range ent.vectors(s.slab) {
			vec := s.readVector(off)
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

// matchBatchRef walks the database once for the batch: every entry's
// vectors are read once and sign-tested against the items still alive
// on it.
func (s *Store) matchBatchRef(eps []*EncodedPublication, out [][]Match) error {
	if s.dim == 0 {
		return fmt.Errorf("aspe: store not configured (no scheme parameters provisioned)")
	}
	if len(out) < len(eps) {
		return fmt.Errorf("aspe: batch result slots %d < publications %d", len(out), len(eps))
	}
	cost := s.acc.Meter().Cost
	pNorms, taken, alive := make([]float64, len(eps)), make([]bool, len(eps)), make([]bool, len(eps))
	for i, ep := range eps {
		if ep != nil && ep.Dim == s.dim {
			taken[i], pNorms[i] = true, PointNorm(ep.Point)
		}
	}
	for si := range s.subs {
		ent := &s.subs[si]
		live := 0
		for i, ep := range eps {
			alive[i] = taken[i]
			if taken[i] && s.opts.Prefilter && ent.hasEq {
				s.acc.Charge(uint64(bloomWords) * 2)
				alive[i] = ent.filter(s.slab).subsetOf(&ep.Filter)
			}
			if alive[i] {
				live++
			}
		}
		if live == 0 {
			continue
		}
		for _, off := range ent.vectors(s.slab) {
			vec := s.readVector(off)
			for i, ep := range eps {
				if !alive[i] {
					continue
				}
				s.acc.Charge(uint64(float64(len(vec)) * cost.MulAddCycles))
				if Dot(ep.Point, vec) < -(pointTolerance(s.dim, pNorms[i]) * ent.qScale) {
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
