package sgx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"

	"scbr/internal/scrypto"
	"scbr/internal/simmem"
)

// The pagers kept their residency table as a map from page number to a
// heap-allocated entry before it became a page-indexed slice, and each
// kept its own copy of CLOCK and sealing before both policies shared
// one core. refEPC and refSplitCache are those originals, kept as the
// reference models the differential tests below hold the shared core
// and its two policies to.

type refEntry struct {
	ref   bool
	dirty bool
	slot  int
}

type refEPC struct {
	arena        *simmem.Arena
	capacity     int
	key          []byte
	cost         simmem.CostModel
	counters     *simmem.Counters
	resident     map[uint64]*refEntry
	clock        []uint64
	hand         int
	evicted      map[uint64][]byte
	versions     map[uint64]uint64
	faults       uint64
	peakResident int
}

func newRefEPC(capacityBytes uint64, key []byte, cost simmem.CostModel, counters *simmem.Counters) *refEPC {
	return &refEPC{
		arena:    simmem.NewArena(),
		capacity: int(capacityBytes / simmem.PageSize),
		key:      key,
		cost:     cost,
		counters: counters,
		resident: make(map[uint64]*refEntry),
		evicted:  make(map[uint64][]byte),
		versions: make(map[uint64]uint64),
	}
}

func (m *refEPC) Touch(page uint64, _ bool) uint64 {
	if ent, ok := m.resident[page]; ok {
		ent.ref = true
		return 0
	}
	_, wasEvicted := m.evicted[page]
	needsEviction := len(m.resident) >= m.capacity
	var cycles uint64
	if wasEvicted || needsEviction {
		m.faults++
		m.counters.PageFaults++
		cycles = m.cost.PageFaultCycles
	} else {
		cycles = m.cost.MinorFaultCycles
	}
	if needsEviction {
		m.evictOne()
	}
	if ct, ok := m.evicted[page]; ok {
		pt, err := scrypto.OpenGCM(m.key, ct, refPageAAD(page, m.versions[page]))
		if err != nil {
			panic(fmt.Sprintf("reference EPC integrity failure on page %d: %v", page, err))
		}
		copy(m.arena.Page(page), pt)
		delete(m.evicted, page)
	}
	m.resident[page] = &refEntry{ref: true, slot: len(m.clock)}
	m.clock = append(m.clock, page)
	if len(m.resident) > m.peakResident {
		m.peakResident = len(m.resident)
	}
	return cycles
}

func (m *refEPC) evictOne() {
	for {
		page := m.clock[m.hand]
		ent := m.resident[page]
		if ent.ref {
			ent.ref = false
			m.hand = (m.hand + 1) % len(m.clock)
			continue
		}
		m.versions[page]++
		data := m.arena.Page(page)
		ct, err := scrypto.SealGCM(m.key, data, refPageAAD(page, m.versions[page]))
		if err != nil {
			panic(err)
		}
		m.evicted[page] = ct
		clear(data)
		last := len(m.clock) - 1
		moved := m.clock[last]
		m.clock[ent.slot] = moved
		m.resident[moved].slot = ent.slot
		m.clock = m.clock[:last]
		if m.hand >= len(m.clock) {
			m.hand = 0
		}
		delete(m.resident, page)
		return
	}
}

type refSplitCache struct {
	arena        *simmem.Arena
	capacity     int
	key          []byte
	cost         simmem.CostModel
	counters     *simmem.Counters
	resident     map[uint64]*refEntry
	clock        []uint64
	hand         int
	sealed       map[uint64][]byte
	versions     map[uint64]uint64
	faults       uint64
	writebacks   uint64
	peakResident int
}

func newRefSplitCache(cacheBytes uint64, key []byte, cost simmem.CostModel, counters *simmem.Counters) *refSplitCache {
	return &refSplitCache{
		arena:    simmem.NewArena(),
		capacity: int(cacheBytes / simmem.PageSize),
		key:      key,
		cost:     cost,
		counters: counters,
		resident: make(map[uint64]*refEntry),
		sealed:   make(map[uint64][]byte),
		versions: make(map[uint64]uint64),
	}
}

func (s *refSplitCache) sealCycles() uint64 {
	return s.cost.SealFixedCycles + uint64(s.cost.AESByteCycles*float64(simmem.PageSize))
}

func (s *refSplitCache) Touch(page uint64, write bool) uint64 {
	if ent, ok := s.resident[page]; ok {
		ent.ref = true
		ent.dirty = ent.dirty || write
		return 0
	}
	var cycles uint64
	if len(s.resident) >= s.capacity {
		cycles += s.evictOne()
	}
	if ct, cold := s.sealed[page]; cold {
		s.faults++
		s.counters.UserFaults++
		cycles += s.sealCycles()
		pt, err := scrypto.OpenGCM(s.key, ct, refPageAAD(page, s.versions[page]))
		if err != nil {
			panic(fmt.Sprintf("reference split cache integrity failure on page %d: %v", page, err))
		}
		copy(s.arena.Page(page), pt)
	} else {
		cycles += s.cost.MinorFaultCycles
	}
	s.resident[page] = &refEntry{ref: true, dirty: write, slot: len(s.clock)}
	s.clock = append(s.clock, page)
	if len(s.resident) > s.peakResident {
		s.peakResident = len(s.resident)
	}
	return cycles
}

func (s *refSplitCache) evictOne() uint64 {
	for {
		page := s.clock[s.hand]
		ent := s.resident[page]
		if ent.ref {
			ent.ref = false
			s.hand = (s.hand + 1) % len(s.clock)
			continue
		}
		var cycles uint64
		data := s.arena.Page(page)
		if _, everSealed := s.sealed[page]; ent.dirty || !everSealed {
			s.versions[page]++
			ct, err := scrypto.SealGCM(s.key, data, refPageAAD(page, s.versions[page]))
			if err != nil {
				panic(err)
			}
			s.sealed[page] = ct
			s.writebacks++
			s.counters.UserWritebacks++
			cycles = s.sealCycles()
		}
		clear(data)
		last := len(s.clock) - 1
		moved := s.clock[last]
		s.clock[ent.slot] = moved
		s.resident[moved].slot = ent.slot
		s.clock = s.clock[:last]
		if s.hand >= len(s.clock) && len(s.clock) > 0 {
			s.hand = 0
		}
		delete(s.resident, page)
		return cycles
	}
}

func refPageAAD(page, version uint64) []byte {
	var aad [16]byte
	binary.LittleEndian.PutUint64(aad[:8], page)
	binary.LittleEndian.PutUint64(aad[8:], version)
	return aad[:]
}

func sortedPages[V any](m map[uint64]V) []uint64 {
	pages := make([]uint64, 0, len(m))
	for p := range m {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// pagerTrace drives a pager and its reference with the same seeded
// touches over three times the capacity — uniform, a hot set that fits,
// and a sequential sweep, reads and writes mixed — writing a fresh
// pattern into every page touched for writing so that a reload is
// checked against real contents. step compares the two after every
// touch.
func pagerTrace(t *testing.T, seed int64, capacityPages int, got, ref simmem.Pager, gotArena, refArena *simmem.Arena,
	step func(i int, page uint64)) {
	t.Helper()
	pages := 3 * capacityPages
	for i := 0; i < pages; i++ {
		for _, a := range []*simmem.Arena{gotArena, refArena} {
			if _, err := a.Alloc(simmem.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seq := 0
	for i := 0; i < 6000; i++ {
		var page uint64
		switch rng.Intn(3) {
		case 0:
			page = uint64(rng.Intn(pages))
		case 1:
			page = uint64(rng.Intn(capacityPages/2 + 1))
		default:
			seq = (seq + 1) % pages
			page = uint64(seq)
		}
		write := rng.Intn(3) == 0
		gotCycles, refCycles := got.Touch(page, write), ref.Touch(page, write)
		if gotCycles != refCycles {
			t.Fatalf("touch %d of page %d (write=%v): %d cycles, reference charges %d", i, page, write, gotCycles, refCycles)
		}
		if write {
			binary.LittleEndian.PutUint64(gotArena.Page(page)[8*(i%512):], uint64(i))
			binary.LittleEndian.PutUint64(refArena.Page(page)[8*(i%512):], uint64(i))
		}
		if !bytes.Equal(gotArena.Page(page), refArena.Page(page)) {
			t.Fatalf("touch %d: contents of page %d differ from the reference", i, page)
		}
		step(i, page)
	}
}

func TestEPCMatchesMapBackedReference(t *testing.T) {
	for _, capacityPages := range []int{1, 7, 32} {
		t.Run(fmt.Sprintf("capacity=%d", capacityPages), func(t *testing.T) {
			key := bytes.Repeat([]byte{0x42}, 16)
			cost := simmem.DefaultCost()
			var gotC, refC simmem.Counters
			got := &epc{newPages(uint64(capacityPages)*simmem.PageSize, key, cost, &gotC)}
			ref := newRefEPC(uint64(capacityPages)*simmem.PageSize, key, cost, &refC)
			pagerTrace(t, int64(capacityPages), capacityPages, got, ref, got.arena, ref.arena, func(i int, page uint64) {
				if gotC != refC {
					t.Fatalf("touch %d: counters %+v, reference %+v", i, gotC, refC)
				}
				if gotC.PageFaults != ref.faults || len(got.clock) != len(ref.resident) || got.peak != ref.peakResident {
					t.Fatalf("touch %d: faults/resident/peak %d/%d/%d, reference %d/%d/%d", i,
						gotC.PageFaults, len(got.clock), got.peak, ref.faults, len(ref.resident), ref.peakResident)
				}
				if g, r := sortedPages(got.images), sortedPages(ref.evicted); fmt.Sprint(g) != fmt.Sprint(r) {
					t.Fatalf("touch %d: evicted pages %v, reference %v", i, g, r)
				}
				if !maps.Equal(got.versions, ref.versions) {
					t.Fatalf("touch %d: versions %v, reference %v", i, got.versions, ref.versions)
				}
			})
		})
	}
}

func TestSplitCacheMatchesMapBackedReference(t *testing.T) {
	for _, capacityPages := range []int{1, 7, 32} {
		t.Run(fmt.Sprintf("capacity=%d", capacityPages), func(t *testing.T) {
			key := bytes.Repeat([]byte{0x24}, 16)
			cost := simmem.DefaultCost()
			var gotC, refC simmem.Counters
			got := &split{newPages(uint64(capacityPages)*simmem.PageSize, key, cost, &gotC)}
			ref := newRefSplitCache(uint64(capacityPages)*simmem.PageSize, key, cost, &refC)
			pagerTrace(t, int64(capacityPages), capacityPages, got, ref, got.arena, ref.arena, func(i int, page uint64) {
				if gotC != refC {
					t.Fatalf("touch %d: counters %+v, reference %+v", i, gotC, refC)
				}
				gotResident, gotPeak := got.ResidentBytes()
				if gotC.UserFaults != ref.faults || gotC.UserWritebacks != ref.writebacks ||
					gotResident != uint64(len(ref.resident))*simmem.PageSize || gotPeak != uint64(ref.peakResident)*simmem.PageSize {
					t.Fatalf("touch %d: faults/writebacks/resident/peak %d/%d/%d/%d, reference %d/%d/%d/%d", i,
						gotC.UserFaults, gotC.UserWritebacks, gotResident/simmem.PageSize, gotPeak/simmem.PageSize,
						ref.faults, ref.writebacks, len(ref.resident), ref.peakResident)
				}
				// A split cache keeps the sealed image of a reloaded page, so
				// the externalised set is the sealed pages not resident.
				if g, r := sortedPages(got.images), sortedPages(ref.sealed); fmt.Sprint(g) != fmt.Sprint(r) {
					t.Fatalf("touch %d: sealed pages %v, reference %v", i, g, r)
				}
				for p := range ref.sealed {
					_, refIn := ref.resident[p]
					if gotIn := got.resident[p].slot != 0; gotIn != refIn {
						t.Fatalf("touch %d: sealed page %d resident=%v, reference %v", i, p, gotIn, refIn)
					}
				}
				if !maps.Equal(got.versions, ref.versions) {
					t.Fatalf("touch %d: versions %v, reference %v", i, got.versions, ref.versions)
				}
			})
		})
	}
}

// BenchmarkMeterAccessFault is the fault path of the per-layer set
// (the hit and miss paths are in internal/simmem): reads at random over
// four times the EPC, so most touch a page that must be reloaded —
// residency bookkeeping plus a genuine AES-GCM seal of the victim and
// open of the target.
func BenchmarkMeterAccessFault(b *testing.B) {
	mem := launch(b, testDevice(b), []byte("fault bench"), EnclaveConfig{EPCBytes: 64 * simmem.PageSize}).Memory()
	offs := make([]uint64, 256)
	for i := range offs {
		off, err := mem.Alloc(simmem.PageSize)
		if err != nil {
			b.Fatal(err)
		}
		offs[i] = off
	}
	rng := rand.New(rand.NewSource(1))
	before := mem.PageFaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.Read(offs[rng.Intn(len(offs))], 48)
	}
	b.StopTimer()
	b.ReportMetric(float64(mem.PageFaults()-before)/float64(b.N), "faults/op")
}
