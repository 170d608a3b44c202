package aspe

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"scbr/internal/core"
	"scbr/internal/simmem"
)

// Match identifies one matching subscription of a Store scan: the
// containment engine's result, so a scan's rows need no conversion.
type Match = core.MatchResult

// scanChunk is the widest batch one scan of the database serves: the
// events still live on a subscription are one bit each of a uint64.
const scanChunk = 64

// entry is the store-side handle of one registered subscription, laid
// out for the scan: half a cache line, no pointer. The rest of it is a
// run of Store.slab — the positions of the bits its Bloom filter sets
// (none without equality constraints), slab[start : start+nBits], then
// the arena offsets of its ciphertext vectors, the next n words.
type entry struct {
	id     uint64
	ref    uint32
	start  uint32
	n      uint32
	nBits  uint16
	hasEq  bool
	qScale float64 // 1 + the query norm: the subscription's factor of the tolerance
}

// vectors returns the arena offsets of the entry's ciphertext vectors.
func (e *entry) vectors(slab []uint64) []uint64 {
	return slab[e.start+uint32(e.nBits):][:e.n]
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

	// slab holds every entry's run (see entry); dead counts the words
	// no entry owns any more, and the slab is rebuilt once they are the
	// majority. free holds the arena offsets of unregistered vectors,
	// which insert reuses: every vector of a store is dim × 8 bytes.
	slab []uint64
	dead int
	free []uint64

	// stage is insert's encode buffer for one ciphertext vector; pts
	// holds a chunk's points back to back, rows the same points k-major
	// for signKernel, and sums takes the kernel's sums, which only its
	// tests read.
	stage []byte
	pts   []float64
	rows  []float64
	sums  [scanChunk]float64
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
	s.free = s.free[:0] // slots of the old vector size
	return nil
}

// Dim returns the configured dimensionality (0 before Configure).
func (s *Store) Dim() int { return s.dim }

// Len returns the number of registered subscriptions.
func (s *Store) Len() int { return len(s.subs) }

// Bytes returns the arena footprint: the largest set of vectors the
// store has held at once, since an unregistered subscription's slots
// are reused before the arena grows.
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

// insert writes the subscription's vectors into free or fresh arena
// slots and appends its entry. On an allocation failure the slots
// already taken go back on the free list and the store is as it was.
func (s *Store) insert(es *EncodedSubscription, clientRef uint32, id uint64) error {
	if s.dim == 0 {
		return fmt.Errorf("aspe: store not configured (no scheme parameters provisioned)")
	}
	if es.Dim != s.dim {
		return fmt.Errorf("aspe: subscription has dimension %d, store expects %d", es.Dim, s.dim)
	}
	for _, v := range es.Vectors {
		if len(v) != s.dim {
			return fmt.Errorf("aspe: query vector has %d components, store expects %d", len(v), s.dim)
		}
	}
	if cap(s.stage) < s.vecBytes() {
		s.stage = make([]byte, s.vecBytes())
	}
	buf := s.stage[:s.vecBytes()]
	start := len(s.slab)
	if es.HasEq {
		for pos := range es.Filter.setBits {
			s.slab = append(s.slab, uint64(pos))
		}
	}
	nBits := len(s.slab) - start
	for _, v := range es.Vectors {
		var off uint64
		if last := len(s.free) - 1; last >= 0 {
			off, s.free = s.free[last], s.free[:last]
		} else {
			var err error
			if off, err = s.acc.Alloc(len(buf)); err != nil {
				s.free = append(s.free, s.slab[start+nBits:]...)
				s.slab = s.slab[:start]
				return fmt.Errorf("aspe: storing query vector: %w", err)
			}
		}
		for i, x := range v {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
		}
		s.acc.Write(off, buf)
		s.slab = append(s.slab, off)
	}
	s.index[id] = len(s.subs)
	s.subs = append(s.subs, entry{
		id: id, ref: clientRef,
		start: uint32(start), n: uint32(len(es.Vectors)), nBits: uint16(nBits),
		hasEq: es.HasEq, qScale: 1 + es.QNorm,
	})
	return nil
}

// Unregister removes a subscription and puts its arena vectors on the
// free list.
func (s *Store) Unregister(id uint64) error {
	slot, ok := s.index[id]
	if !ok {
		return fmt.Errorf("aspe: unknown subscription %d", id)
	}
	ent := &s.subs[slot]
	s.free = append(s.free, ent.vectors(s.slab)...)
	s.dead += int(ent.nBits) + int(ent.n)
	last := len(s.subs) - 1
	if slot != last {
		s.subs[slot] = s.subs[last]
		s.index[s.subs[slot].id] = slot
	}
	s.subs = s.subs[:last]
	delete(s.index, id)
	if s.dead > len(s.slab)/2 {
		s.compactSlab()
	}
	return nil
}

// compactSlab rebuilds the slab without its dead words, in scan order.
func (s *Store) compactSlab() {
	slab := make([]uint64, 0, len(s.slab)-s.dead)
	for i := range s.subs {
		ent := &s.subs[i]
		start := uint32(len(slab))
		slab = append(slab, s.slab[ent.start:][:uint32(ent.nBits)+ent.n]...)
		ent.start = start
	}
	s.slab, s.dead = slab, 0
}

// accepts reports whether the scan can take the publication: nil holes
// and points of another dimensionality are not matched.
func (s *Store) accepts(ep *EncodedPublication) bool {
	return ep != nil && ep.Dim == s.dim && len(ep.Point) == s.dim
}

// MatchRecords scans the database for a whole batch of encoded
// publications and appends to out one record per subscription any
// item of a chunk matched, its Mask the items that did (see
// core.Record). eps is only read; nil items are skipped, as are items
// whose dimensionality the store rejects (accepts).
//
// The database is walked once per chunk of 64 items (see scan), so a
// ciphertext vector is read from the metered arena once for up to 64
// publications — the dominant metered cost of a scan, which is why
// simulated cost grows sub-linearly in batch size — while the sign-test
// and prefilter cycles are charged per item, and the records name
// exactly what a scan of each item alone finds, in the same order.
func (s *Store) MatchRecords(eps []*EncodedPublication, out []core.Record) ([]core.Record, error) {
	if s.dim == 0 {
		return nil, fmt.Errorf("aspe: store not configured (no scheme parameters provisioned)")
	}
	from := kernelFrom()
	for base := 0; base < len(eps); base += scanChunk {
		end := min(base+scanChunk, len(eps))
		out = s.scan(eps[base:end], uint32(base), out, from)
	}
	return out, nil
}

// kernelLive is the fewest live events scan hands one sign test to
// signKernel: one lane's worth. Below it signTests is as fast (see
// scan).
const kernelLive = 4

// kernelFrom is the live count from which scan runs signKernel:
// kernelLive on a host that has the kernel, never elsewhere.
func kernelFrom() int {
	if haveKernel {
		return kernelLive
	}
	return scanChunk + 1
}

// scan walks the database once for up to scanChunk publications. An
// event is a bit of a mask: valid holds the ones the store accepts, and
// per subscription live starts from valid, loses the events the Bloom
// prefilter rules out, then the events that fail a sign test, vector by
// vector; what is left matched. The events' filters are transposed into
// a bit → event-mask table first, so the prefilter is one AND per bit
// the subscription's filter sets instead of a subset test per event.
// Each vector is read through the accessor once, while an event is
// still live on it; prefilter and multiply-add cycles are summed and
// charged once — the totals of a per-event scan. A subscription that
// some event matched is appended to out as one record, Base base and
// Mask the events it matched.
//
// A sign test on at least from live events runs signKernel, four events
// to a lane, on the bytes Read returned and the points kept k-major in
// rows (filled only when that many events are valid); a sparser one
// runs signTests on the same bytes. Both give Dot's sums, so the path
// moves no match and no count. BenchmarkStoreScan's live=N sweep
// puts the crossover between 1 and 4 live events: the two paths tie on
// a lone event, and the kernel is ahead from 4 (docs/benchmarks.md,
// "Four events to a lane"), hence kernelLive.
func (s *Store) scan(eps []*EncodedPublication, base uint32, out []core.Record, from int) []core.Record {
	dim := s.dim
	if cap(s.pts) < len(eps)*dim {
		s.pts = make([]float64, len(eps)*dim)
	}
	pts := s.pts[:len(eps)*dim]

	// negTol is the event's factor of the tolerance, negated.
	var (
		valid  uint64
		negTol [scanChunk]float64
		table  [BloomBits]uint64
	)
	for i, ep := range eps {
		if !s.accepts(ep) {
			continue
		}
		valid |= 1 << uint(i)
		copy(pts[i*dim:], ep.Point)
		negTol[i] = -pointTolerance(dim, PointNorm(ep.Point))
		if s.opts.Prefilter {
			for pos := range ep.Filter.setBits {
				table[pos] |= 1 << uint(i)
			}
		}
	}
	if valid == 0 {
		return out
	}
	nValid := bits.OnesCount64(valid)
	var rows []float64
	if nValid >= from {
		if cap(s.rows) < dim*scanChunk {
			s.rows = make([]float64, dim*scanChunk)
		}
		rows = s.rows[:dim*scanChunk]
		for m := valid; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			for k, x := range pts[i*dim:][:dim] {
				rows[k*scanChunk+i] = x
			}
		}
	}
	// A Bloom subset test is a handful of word ops per event.
	prefilterCycles := uint64(bloomWords) * 2 * uint64(nValid)
	mulAddCycles := uint64(float64(dim) * s.acc.Meter().Cost.MulAddCycles)
	var cycles uint64
	subs, slab, prefilter := s.subs, s.slab, s.opts.Prefilter
	for si := range subs {
		ent := &subs[si]
		live := valid
		if prefilter && ent.hasEq {
			cycles += prefilterCycles
			for _, pos := range slab[ent.start:][:ent.nBits] {
				live &= table[uint8(pos)]
			}
			if live == 0 {
				continue
			}
		}
		for _, off := range ent.vectors(slab) {
			raw := s.acc.Read(off, dim*8)
			n := bits.OnesCount64(live)
			cycles += mulAddCycles * uint64(n)
			if n >= from {
				live &^= signKernel(&raw[0], &rows[0], dim, live, &negTol, ent.qScale, &s.sums)
			} else {
				live = signTests(raw, pts, &negTol, ent.qScale, live)
			}
			if live == 0 {
				break
			}
		}
		if live == 0 {
			continue
		}
		out = append(out, core.Record{SubID: ent.id, ClientRef: ent.ref, Base: base, Mask: live})
	}
	s.acc.Charge(cycles)
	return out
}

// signTests runs one query vector's sign test on every live event and
// returns the ones that pass: vec · point ≥ −tolerance. The vector is
// read in place, raw holding its components as the arena stores them
// (little-endian float64 bits, dim × 8 bytes). It takes four events at
// a time, a sum each, so four chains of additions are in flight instead
// of one; each sum still adds its products in index order, which makes
// it Dot's to the bit. A last group of two or three repeats its second
// event in the spare lanes; a last event alone is summed as Dot sums.
// It is scan's portable path, and its path for a sign test on fewer
// than kernelLive live events.
func signTests(raw []byte, pts []float64, negTol *[scanChunk]float64, qScale float64, live uint64) uint64 {
	dim := len(raw) / 8
	raw = raw[:dim*8]
	pass := live
	for m := live; m != 0; {
		i0 := bits.TrailingZeros64(m)
		m &= m - 1
		p0 := pts[i0*dim:][:dim]
		if m == 0 {
			var a0 float64
			w := raw
			for _, x := range p0 {
				if len(w) < 8 { // never: raw holds dim words; it spares the loop its bounds checks
					break
				}
				a0 += x * math.Float64frombits(binary.LittleEndian.Uint64(w))
				w = w[8:]
			}
			if a0 < negTol[i0]*qScale {
				pass &^= 1 << uint(i0)
			}
			break
		}
		i1 := bits.TrailingZeros64(m)
		m &= m - 1
		i2, i3 := i1, i1
		if m != 0 {
			i2 = bits.TrailingZeros64(m)
			m &= m - 1
		}
		if m != 0 {
			i3 = bits.TrailingZeros64(m)
			m &= m - 1
		}
		p1 := pts[i1*dim:][:dim]
		p2 := pts[i2*dim:][:dim]
		p3 := pts[i3*dim:][:dim]
		var a0, a1, a2, a3 float64
		w := raw
		for k := range p0 {
			if len(w) < 8 { // never, as above
				break
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(w))
			w = w[8:]
			a0 += p0[k] * x
			a1 += p1[k] * x
			a2 += p2[k] * x
			a3 += p3[k] * x
		}
		if a0 < negTol[i0]*qScale {
			pass &^= 1 << uint(i0)
		}
		if a1 < negTol[i1]*qScale {
			pass &^= 1 << uint(i1)
		}
		if a2 < negTol[i2]*qScale {
			pass &^= 1 << uint(i2)
		}
		if a3 < negTol[i3]*qScale {
			pass &^= 1 << uint(i3)
		}
	}
	return pass
}

// toleranceFor is the sign-test threshold for a (point, query) pair at
// dimensionality n: products above the negated bound count as ≥ 0. The
// rounding-error model ε·n·‖E(p)‖·‖E(q)‖ with ~10⁴× headroom over
// machine epsilon; see Scheme.Tolerance.
func toleranceFor(n int, pointNorm, queryNorm float64) float64 {
	return pointTolerance(n, pointNorm) * (1 + queryNorm)
}

// pointTolerance is the part of toleranceFor a scan computes once per
// event; a subscription's 1 + queryNorm is stored with its entry.
func pointTolerance(n int, pointNorm float64) float64 {
	return 1e-12 * float64(n) * (1 + pointNorm)
}
