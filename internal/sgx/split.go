package sgx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scbr/internal/scrypto"
	"scbr/internal/simmem"
)

// This file implements the paper's §6 future-work proposal of
// "splitting [the containment trees] into enclaved and external
// parts": instead of letting the SGX driver page the whole enclave
// heap through the EPC — where every fault costs an asynchronous
// enclave exit, a kernel crossing, and an EWB/ELD pair (~7 µs in the
// calibrated model) — the enclave keeps a bounded plaintext working
// set inside the EPC and seals cold pages to untrusted memory itself,
// at user level. A miss then costs one in-enclave AES-GCM unseal
// (plus a seal when the victim is dirty), with no exit and no kernel
// involvement. Confidentiality, integrity and freshness of the
// external part are preserved exactly as the hardware path preserves
// them: pages are encrypted and authenticated under an
// enclave-specific key, and per-page version counters kept in trusted
// memory make replays of stale images detectable.

// ErrSplitCacheTooSmall is returned when the requested split-cache
// budget cannot hold even a single page, or exceeds the EPC (which
// would reintroduce the hardware paging the layer exists to avoid).
var ErrSplitCacheTooSmall = errors.New("sgx: split cache must hold at least one page and fit the EPC")

// SplitIntegrityError is thrown (as a panic, mirroring the memory
// controller lock of the hardware path) when a sealed page fails
// authentication on reload: the untrusted side tampered with or
// replayed the external part of the store.
type SplitIntegrityError struct {
	Page uint64
	Err  error
}

// Error implements error.
func (e *SplitIntegrityError) Error() string {
	return fmt.Sprintf("sgx: split-memory integrity failure on page %d: %v", e.Page, e.Err)
}

// Unwrap exposes the underlying authentication error.
func (e *SplitIntegrityError) Unwrap() error { return e.Err }

// splitCache manages residency of the enclave heap in a bounded
// in-enclave plaintext cache. It implements simmem.Pager, like the
// epc, but services faults itself: a cold page is unsealed from
// untrusted memory (UserFaults), and a dirty victim is sealed back
// out (UserWritebacks). Clean victims are dropped without
// re-encryption — their sealed image is still current — which is the
// structural advantage over hardware EWB, where every eviction
// re-encrypts.
type splitCache struct {
	arena    *simmem.Arena
	capacity int // resident page budget
	key      []byte
	cost     simmem.CostModel
	counters *simmem.Counters

	// resident is indexed by page number (arena pages are dense from
	// 0) and grows with the highest page touched, from
	// residentMinPages like the epc's.
	resident []splitEntry
	clock    []uint64 // ring of resident page numbers
	hand     int

	// sealed holds the encrypted image of each externalised page, as
	// untrusted memory would.
	sealed map[uint64][]byte
	// versions is trusted metadata (kept inside the enclave): the
	// expected version of each sealed page.
	versions map[uint64]uint64

	faults       uint64 // user-level faults (unseals)
	writebacks   uint64 // dirty seals
	peakResident int    // residency high-water mark in pages
}

type splitEntry struct {
	slot  int32 // 1 + index in the clock ring; 0 while not resident
	ref   bool
	dirty bool
}

var (
	_ simmem.Pager     = (*splitCache)(nil)
	_ simmem.Residency = (*splitCache)(nil)
)

func newSplitCache(cacheBytes uint64, key []byte, cost simmem.CostModel, counters *simmem.Counters) *splitCache {
	return &splitCache{
		arena:    simmem.NewArena(),
		capacity: int(cacheBytes / simmem.PageSize),
		key:      key,
		cost:     cost,
		counters: counters,
		resident: make([]splitEntry, 0, residentMinPages),
		sealed:   make(map[uint64][]byte),
		versions: make(map[uint64]uint64),
	}
}

// sealCycles is the simulated cost of one in-enclave AES-GCM pass over
// a page (seal or unseal).
func (s *splitCache) sealCycles() uint64 {
	return s.cost.SealFixedCycles + uint64(s.cost.AESByteCycles*float64(simmem.PageSize))
}

// Touch implements simmem.Pager.
func (s *splitCache) Touch(page uint64, write bool) uint64 {
	if page < uint64(len(s.resident)) && s.resident[page].slot != 0 {
		ent := &s.resident[page]
		ent.ref = true
		ent.dirty = ent.dirty || write
		return 0
	}
	var cycles uint64
	if len(s.clock) >= s.capacity {
		cycles += s.evictOne()
	}
	if _, cold := s.sealed[page]; cold {
		// User-level fault: unseal the page inside the enclave.
		s.faults++
		if s.counters != nil {
			s.counters.UserFaults++
		}
		cycles += s.sealCycles()
		if err := s.load(page); err != nil {
			panic(&SplitIntegrityError{Page: page, Err: err})
		}
	} else {
		// Fresh page: an EAUG-style soft add, not a paging event.
		cycles += s.cost.MinorFaultCycles
	}
	if n := uint64(len(s.resident)); page >= n {
		s.resident = append(s.resident, make([]splitEntry, page+1-n)...)
	}
	s.clock = append(s.clock, page)
	s.resident[page] = splitEntry{slot: int32(len(s.clock)), ref: true, dirty: write}
	if len(s.clock) > s.peakResident {
		s.peakResident = len(s.clock)
	}
	return cycles
}

// ResidentBytes implements simmem.Residency.
func (s *splitCache) ResidentBytes() (resident, peak uint64) {
	return uint64(len(s.clock)) * simmem.PageSize, uint64(s.peakResident) * simmem.PageSize
}

// evictOne runs the CLOCK hand to a victim with a clear reference bit
// and externalises it: dirty pages are sealed (encrypt + version
// bump); clean pages are simply dropped, since their sealed image is
// still valid. Returns the cycles charged.
func (s *splitCache) evictOne() uint64 {
	for {
		page := s.clock[s.hand]
		ent := &s.resident[page]
		if ent.ref {
			ent.ref = false
			s.hand = (s.hand + 1) % len(s.clock)
			continue
		}
		var cycles uint64
		data := s.arena.Page(page)
		if _, everSealed := s.sealed[page]; ent.dirty || !everSealed {
			s.versions[page]++
			ct, err := scrypto.SealGCM(s.key, data, s.pageAAD(page))
			if err != nil {
				panic(fmt.Sprintf("sgx: split-memory seal failed: %v", err))
			}
			s.sealed[page] = ct
			s.writebacks++
			if s.counters != nil {
				s.counters.UserWritebacks++
			}
			cycles = s.sealCycles()
		}
		for i := range data {
			data[i] = 0
		}
		last := len(s.clock) - 1
		moved := s.clock[last]
		s.clock[ent.slot-1] = moved
		s.resident[moved].slot = ent.slot
		s.clock = s.clock[:last]
		if s.hand >= len(s.clock) && len(s.clock) > 0 {
			s.hand = 0
		}
		*ent = splitEntry{}
		return cycles
	}
}

// load decrypts and verifies a sealed page back into the cache frame.
// The sealed image is kept: while the reloaded page stays clean it
// remains the page's valid external copy, so a later clean eviction
// can drop the frame without re-encrypting — the structural saving
// over hardware EWB.
func (s *splitCache) load(page uint64) error {
	ct := s.sealed[page]
	pt, err := scrypto.OpenGCM(s.key, ct, s.pageAAD(page))
	if err != nil {
		return fmt.Errorf("unsealing external page: %w", err)
	}
	copy(s.arena.Page(page), pt)
	return nil
}

func (s *splitCache) pageAAD(page uint64) []byte {
	var aad [16]byte
	binary.LittleEndian.PutUint64(aad[:8], page)
	binary.LittleEndian.PutUint64(aad[8:], s.versions[page])
	return aad[:]
}

// SplitAccessor is the enclave-mode accessor of the split-memory
// configuration: identical interface and MEE/LLC charging to the
// EPC-paged Accessor, but residency beyond the in-enclave cache is
// managed at user level by sealing pages to untrusted memory. The
// matching engine code is byte-for-byte the same as in every other
// configuration.
type SplitAccessor struct {
	arena *simmem.Arena
	meter *simmem.Meter
	cache *splitCache
}

var _ simmem.Accessor = (*SplitAccessor)(nil)

// SplitMemory returns a fresh heap accessor whose in-enclave plaintext
// working set is bounded by cacheBytes; everything beyond it lives
// sealed in untrusted memory and is unsealed on demand inside the
// enclave. cacheBytes must hold at least one page and must not exceed
// the enclave's EPC budget (a larger cache would itself be paged by
// the hardware, defeating the layer).
func (e *Enclave) SplitMemory(cacheBytes uint64) (*SplitAccessor, error) {
	if !e.inited {
		return nil, ErrNotInitialised
	}
	if cacheBytes < simmem.PageSize || cacheBytes > e.cfg.EPCBytes {
		return nil, fmt.Errorf("%w: %d bytes requested, EPC %d", ErrSplitCacheTooSmall, cacheBytes, e.cfg.EPCBytes)
	}
	key := e.dev.deriveKey("split-paging", e.mrenclave[:])[:16]
	meter := simmem.NewMeter(e.dev.cost)
	meter.SetEnclave(true)
	cache := newSplitCache(cacheBytes, key, e.dev.cost, &meter.C)
	meter.SetPager(cache)
	return &SplitAccessor{arena: cache.arena, meter: meter, cache: cache}, nil
}

// Alloc implements simmem.Accessor. Like the EPC accessor, newly
// allocated pages become resident immediately and may push colder
// pages out to the sealed external store.
func (a *SplitAccessor) Alloc(n int) (uint64, error) {
	off, err := a.arena.Alloc(n)
	if err != nil {
		return 0, err
	}
	a.meter.Access(off, n, true)
	return off, nil
}

// Read implements simmem.Accessor.
func (a *SplitAccessor) Read(off uint64, n int) []byte {
	a.meter.Access(off, n, false)
	return a.arena.Bytes(off, n)
}

// Write implements simmem.Accessor.
func (a *SplitAccessor) Write(off uint64, b []byte) {
	a.meter.Access(off, len(b), true)
	copy(a.arena.Bytes(off, len(b)), b)
}

// Charge implements simmem.Accessor.
func (a *SplitAccessor) Charge(cycles uint64) { a.meter.Charge(cycles) }

// Meter implements simmem.Accessor.
func (a *SplitAccessor) Meter() *simmem.Meter { return a.meter }

// Size implements simmem.Accessor.
func (a *SplitAccessor) Size() uint64 { return a.arena.Size() }

// UserFaults returns the number of user-level faults (unseals) so far.
func (a *SplitAccessor) UserFaults() uint64 { return a.cache.faults }

// Writebacks returns the number of dirty-page seals so far.
func (a *SplitAccessor) Writebacks() uint64 { return a.cache.writebacks }

// ResidentPages returns the number of pages currently held in
// plaintext inside the enclave.
func (a *SplitAccessor) ResidentPages() int { return len(a.cache.clock) }

// PeakResidentPages returns the in-enclave residency high-water mark.
func (a *SplitAccessor) PeakResidentPages() int { return a.cache.peakResident }

// SealedPages returns the number of pages with a sealed image in
// untrusted memory (the authoritative copy for every non-resident
// page; resident clean pages may also still have one).
func (a *SplitAccessor) SealedPages() int { return len(a.cache.sealed) }

// CorruptSealedPage flips a bit in the sealed image of an external
// page. It exists for failure-injection tests and returns false if the
// page is not currently externalised.
func (a *SplitAccessor) CorruptSealedPage(page uint64) bool {
	ct, ok := a.cache.sealed[page]
	if !ok {
		return false
	}
	ct[len(ct)/2] ^= 0x01
	return true
}

// SealedPageImage returns a copy of the sealed image of an external
// page (for failure-injection tests).
func (a *SplitAccessor) SealedPageImage(page uint64) ([]byte, bool) {
	ct, ok := a.cache.sealed[page]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(ct))
	copy(out, ct)
	return out, true
}

// ReplaySealedPage substitutes the sealed image of an external page
// with a previously captured one, simulating an untrusted-memory
// replay. Returns false if the page is not currently externalised.
func (a *SplitAccessor) ReplaySealedPage(page uint64, oldImage []byte) bool {
	if _, ok := a.cache.sealed[page]; !ok {
		return false
	}
	a.cache.sealed[page] = oldImage
	return true
}
