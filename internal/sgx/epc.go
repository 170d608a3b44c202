package sgx

import (
	"encoding/binary"
	"fmt"

	"scbr/internal/scrypto"
	"scbr/internal/simmem"
)

// epc manages residency of the enclave heap in the enclave page cache.
// It implements simmem.Pager: the meter calls Touch for every page an
// access spans, and the epc transparently evicts and reloads pages.
//
// Eviction follows the SGX driver's behaviour as the paper describes
// it: a victim page is selected (CLOCK second-chance here), written
// back encrypted and integrity-protected (EWB), and the faulting page
// is decrypted and verified on reload (ELD). Version counters stored in
// trusted metadata make replays of stale page images detectable — the
// mechanism §2 attributes to the CPU tracking authentication tags of
// evicted pages.
type epc struct {
	arena    *simmem.Arena
	capacity int // resident page budget
	key      []byte
	cost     simmem.CostModel
	counters *simmem.Counters

	// resident is indexed by page number (arena pages are dense from
	// 0) and grows with the highest page touched. It starts at
	// residentMinPages so that it is never a sub-cache-line object.
	resident []epcEntry
	clock    []uint64 // ring of resident page numbers
	hand     int

	// evicted holds the encrypted image of each swapped-out page, as
	// untrusted memory would.
	evicted map[uint64][]byte
	// versions is trusted metadata: the expected version of each
	// evicted page (SGX keeps these in versioned arrays inside the
	// EPC).
	versions map[uint64]uint64

	faults uint64
	// peakResident is the residency high-water mark in pages: how much
	// EPC this enclave has actually needed at once, the actual to
	// validate deployment-plan footprints against.
	peakResident int
}

type epcEntry struct {
	slot int32 // 1 + index in the clock ring; 0 while not resident
	ref  bool
}

// residentMinPages is the initial capacity of a pager's residency
// table: 64 eight-byte entries, a 512-byte allocation, which the
// allocator aligns to cache lines. Every touch reads the table, and as
// a few-entry object it shared a line with whatever was allocated
// beside it — stores by another core to that neighbour then made every
// touch a coherence miss (15 % of a small-database router's
// throughput, measured on the benchmark's pipe workload).
const residentMinPages = 64

var (
	_ simmem.Pager     = (*epc)(nil)
	_ simmem.Residency = (*epc)(nil)
)

func newEPC(capacityBytes uint64, key []byte, cost simmem.CostModel, counters *simmem.Counters) *epc {
	return &epc{
		arena:    simmem.NewArena(),
		capacity: int(capacityBytes / simmem.PageSize),
		key:      key,
		cost:     cost,
		counters: counters,
		resident: make([]epcEntry, 0, residentMinPages),
		evicted:  make(map[uint64][]byte),
		versions: make(map[uint64]uint64),
	}
}

// Touch implements simmem.Pager. It returns the extra cycles charged
// for the touch: zero for a resident page, the paging cost for an
// evict/reload pair, and a soft-fault cost for adding a fresh page
// while the EPC still has room (EAUG is not a paging event — the
// paper's pre-knee region shows near-zero fault ratios).
func (m *epc) Touch(page uint64, _ bool) uint64 {
	if page < uint64(len(m.resident)) && m.resident[page].slot != 0 {
		m.resident[page].ref = true
		return 0
	}
	_, wasEvicted := m.evicted[page]
	needsEviction := len(m.clock) >= m.capacity
	var cycles uint64
	if wasEvicted || needsEviction {
		m.faults++
		if m.counters != nil {
			m.counters.PageFaults++
		}
		cycles = m.cost.PageFaultCycles
	} else {
		cycles = m.cost.MinorFaultCycles
	}
	if needsEviction {
		m.evictOne()
	}
	if err := m.load(page); err != nil {
		// A decryption failure here means the untrusted side fed the
		// CPU a tampered or replayed page. Real SGX locks the memory
		// controller and forces a reboot; a deterministic simulator
		// can only stop the machine the same way.
		panic(fmt.Sprintf("sgx: EPC integrity failure on page %d: %v", page, err))
	}
	if n := uint64(len(m.resident)); page >= n {
		m.resident = append(m.resident, make([]epcEntry, page+1-n)...)
	}
	m.clock = append(m.clock, page)
	m.resident[page] = epcEntry{slot: int32(len(m.clock)), ref: true}
	if len(m.clock) > m.peakResident {
		m.peakResident = len(m.clock)
	}
	return cycles
}

// evictOne runs the CLOCK hand until it finds a page with a clear
// reference bit, then writes that page back (EWB).
func (m *epc) evictOne() {
	for {
		page := m.clock[m.hand]
		ent := &m.resident[page]
		if ent.ref {
			ent.ref = false
			m.hand = (m.hand + 1) % len(m.clock)
			continue
		}
		// EWB: encrypt the page under the paging key with its new
		// version in the AAD, stash the ciphertext in untrusted memory,
		// and scrub the EPC slot.
		m.versions[page]++
		data := m.arena.Page(page)
		ct, err := scrypto.SealGCM(m.key, data, m.pageAAD(page))
		if err != nil {
			panic(fmt.Sprintf("sgx: EWB encryption failed: %v", err))
		}
		m.evicted[page] = ct
		for i := range data {
			data[i] = 0
		}
		// Remove from the ring by swapping in the last element.
		last := len(m.clock) - 1
		moved := m.clock[last]
		m.clock[ent.slot-1] = moved
		m.resident[moved].slot = ent.slot
		m.clock = m.clock[:last]
		if m.hand >= len(m.clock) {
			m.hand = 0
		}
		*ent = epcEntry{}
		return
	}
}

// load brings a page back into the EPC (ELD), decrypting and verifying
// it when it was previously evicted. Pages faulted in for the first
// time are already zeroed EPC frames.
func (m *epc) load(page uint64) error {
	ct, wasEvicted := m.evicted[page]
	if !wasEvicted {
		return nil
	}
	pt, err := scrypto.OpenGCM(m.key, ct, m.pageAAD(page))
	if err != nil {
		return fmt.Errorf("decrypting evicted page: %w", err)
	}
	copy(m.arena.Page(page), pt)
	delete(m.evicted, page)
	return nil
}

func (m *epc) pageAAD(page uint64) []byte {
	var aad [16]byte
	binary.LittleEndian.PutUint64(aad[:8], page)
	binary.LittleEndian.PutUint64(aad[8:], m.versions[page])
	return aad[:]
}

// Faults returns the number of EPC paging events so far.
func (m *epc) Faults() uint64 { return m.faults }

// ResidentPages returns the number of pages currently in the EPC.
func (m *epc) ResidentPages() int { return len(m.clock) }

// ResidentBytes implements simmem.Residency.
func (m *epc) ResidentBytes() (resident, peak uint64) {
	return uint64(len(m.clock)) * simmem.PageSize, uint64(m.peakResident) * simmem.PageSize
}

// Accessor is the enclave-mode simmem.Accessor: identical interface to
// the plain accessor, but accesses charge MEE costs on LLC misses and
// EPC paging costs on residency misses. The matching engine code is
// byte-for-byte the same in both modes, as in the paper.
type Accessor struct {
	arena *simmem.Arena
	meter *simmem.Meter
	epc   *epc
}

var _ simmem.Accessor = (*Accessor)(nil)

// Alloc implements simmem.Accessor. Newly allocated pages become
// resident immediately (they are EAUGed zero pages), which may trigger
// eviction of colder pages.
func (a *Accessor) Alloc(n int) (uint64, error) {
	off, err := a.arena.Alloc(n)
	if err != nil {
		return 0, err
	}
	// Touching through the meter both installs residency and charges
	// for the zeroing write the kernel performs.
	a.meter.Access(off, n, true)
	return off, nil
}

// Read implements simmem.Accessor.
func (a *Accessor) Read(off uint64, n int) []byte {
	a.meter.Access(off, n, false)
	return a.arena.Bytes(off, n)
}

// Write implements simmem.Accessor.
func (a *Accessor) Write(off uint64, b []byte) {
	a.meter.Access(off, len(b), true)
	copy(a.arena.Bytes(off, len(b)), b)
}

// Charge implements simmem.Accessor.
func (a *Accessor) Charge(cycles uint64) { a.meter.Charge(cycles) }

// Meter implements simmem.Accessor.
func (a *Accessor) Meter() *simmem.Meter { return a.meter }

// Size implements simmem.Accessor.
func (a *Accessor) Size() uint64 { return a.arena.Size() }

// PageFaults exposes the EPC fault count for the Fig. 8 experiment.
func (a *Accessor) PageFaults() uint64 { return a.epc.Faults() }

// ResidentPages exposes current EPC occupancy.
func (a *Accessor) ResidentPages() int { return a.epc.ResidentPages() }

// PeakResidentPages exposes the EPC occupancy high-water mark.
func (a *Accessor) PeakResidentPages() int { return a.epc.peakResident }

// CorruptEvictedPage flips a bit in the stored image of an evicted
// page. It exists for failure-injection tests only and returns false if
// the page is not currently evicted.
func (a *Accessor) CorruptEvictedPage(page uint64) bool {
	ct, ok := a.epc.evicted[page]
	if !ok {
		return false
	}
	ct[len(ct)/2] ^= 0x01
	return true
}

// ReplayEvictedPage substitutes the stored image of an evicted page
// with a previously captured image, simulating an untrusted OS replay
// attack. Returns false if the page is not currently evicted.
func (a *Accessor) ReplayEvictedPage(page uint64, oldImage []byte) bool {
	if _, ok := a.epc.evicted[page]; !ok {
		return false
	}
	a.epc.evicted[page] = oldImage
	return true
}

// EvictedPageImage returns a copy of the current encrypted image of an
// evicted page (for failure-injection tests).
func (a *Accessor) EvictedPageImage(page uint64) ([]byte, bool) {
	ct, ok := a.epc.evicted[page]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(ct))
	copy(out, ct)
	return out, true
}
