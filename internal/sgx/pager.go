package sgx

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"scbr/internal/scrypto"
	"scbr/internal/simmem"
)

// pages is the residency core both enclave pagers share: a bounded set
// of plaintext frames inside the enclave, replaced by CLOCK (second
// chance), and in untrusted memory the encrypted image of each page
// sent out. Images are sealed under a key bound to the enclave with
// the page number and its version in the AAD; the versions are trusted
// metadata (SGX keeps them in versioned arrays inside the EPC), so a
// replayed stale image fails authentication like a tampered one — the
// mechanism §2 attributes to the CPU tracking authentication tags of
// evicted pages. The policies, epc and split, differ only in which
// touch is a fault, what it costs, and which victims are sealed.
type pages struct {
	arena    *simmem.Arena
	capacity int // resident page budget
	key      []byte
	cost     simmem.CostModel
	counters *simmem.Counters

	// resident is indexed by page number (arena pages are dense from
	// 0) and grows with the highest page touched. It starts at
	// residentMinPages so that it is never a sub-cache-line object.
	resident []pageEntry
	clock    []uint64 // ring of resident page numbers
	hand     int

	// images holds the encrypted image of each page sent out, as
	// untrusted memory would; versions holds the version each is
	// expected to carry.
	images   map[uint64][]byte
	versions map[uint64]uint64

	// peak is the residency high-water mark in pages: how much EPC
	// this enclave has actually needed at once, the actual to validate
	// deployment-plan footprints against.
	peak int

	// aead is AES-GCM under key, which is fixed for the enclave's life:
	// its key schedule and GHASH tables are built on the first seal or
	// unseal, not per page.
	aead cipher.AEAD
}

type pageEntry struct {
	slot  int32 // 1 + index in the clock ring; 0 while not resident
	ref   bool
	dirty bool
}

// residentMinPages is the initial capacity of a pager's residency
// table: 64 eight-byte entries, a 512-byte allocation, which the
// allocator aligns to cache lines. Every touch reads the table, and as
// a few-entry object it shared a line with whatever was allocated
// beside it — stores by another core to that neighbour then made every
// touch a coherence miss (15 % of a small-database router's
// throughput, measured on the benchmark's pipe workload).
const residentMinPages = 64

func newPages(capacityBytes uint64, key []byte, cost simmem.CostModel, counters *simmem.Counters) pages {
	return pages{
		arena:    simmem.NewArena(),
		capacity: int(capacityBytes / simmem.PageSize),
		key:      key,
		cost:     cost,
		counters: counters,
		resident: make([]pageEntry, 0, residentMinPages),
		images:   make(map[uint64][]byte),
		versions: make(map[uint64]uint64),
	}
}

// epc pages the enclave heap through the enclave page cache the way
// the SGX driver does, as the paper describes it: a CLOCK victim is
// written back encrypted and integrity-protected (EWB), and a page
// sent out is decrypted and verified on reload (ELD), which consumes
// its image. A reload, or any touch that needs a victim, is one paging
// event; adding a fresh page while the EPC still has room is an EAUG,
// a soft fault (the paper's pre-knee region shows near-zero fault
// ratios).
type epc struct{ pages }

var (
	_ simmem.Pager     = (*epc)(nil)
	_ simmem.Residency = (*epc)(nil)
)

// Touch implements simmem.Pager.
func (m *epc) Touch(page uint64, _ bool) uint64 {
	if page < uint64(len(m.resident)) && m.resident[page].slot != 0 {
		m.resident[page].ref = true
		return 0
	}
	_, evicted := m.images[page]
	full := len(m.clock) >= m.capacity
	cycles := m.cost.MinorFaultCycles
	if evicted || full {
		m.counters.PageFaults++
		cycles = m.cost.PageFaultCycles
	}
	if full {
		victim := m.victim()
		m.seal(victim)
		m.drop(victim)
	}
	if evicted {
		m.unseal(page)
		delete(m.images, page)
	}
	m.admit(page, false)
	return cycles
}

// split implements the paper's §6 future-work proposal of "splitting
// [the containment trees] into enclaved and external parts": instead
// of letting the SGX driver page the whole enclave heap through the
// EPC — where every fault costs an asynchronous enclave exit, a kernel
// crossing, and an EWB/ELD pair (~7 µs in the calibrated model) — the
// enclave keeps a bounded plaintext working set inside the EPC and
// seals cold pages to untrusted memory itself, at user level. A miss
// then costs one in-enclave AES-GCM unseal (plus a seal when the
// victim is dirty), with no exit and no kernel involvement. The image
// survives a reload, so a victim still clean is dropped without
// re-encryption — the structural advantage over hardware EWB, where
// every eviction re-encrypts.
type split struct{ pages }

var (
	_ simmem.Pager     = (*split)(nil)
	_ simmem.Residency = (*split)(nil)
)

// sealCycles is the simulated cost of one in-enclave AES-GCM pass over
// a page (seal or unseal).
func (s *split) sealCycles() uint64 {
	return s.cost.SealFixedCycles + uint64(s.cost.AESByteCycles*float64(simmem.PageSize))
}

// Touch implements simmem.Pager.
func (s *split) Touch(page uint64, write bool) uint64 {
	if page < uint64(len(s.resident)) && s.resident[page].slot != 0 {
		ent := &s.resident[page]
		ent.ref = true
		ent.dirty = ent.dirty || write
		return 0
	}
	var cycles uint64
	if len(s.clock) >= s.capacity {
		victim := s.victim()
		if _, sealed := s.images[victim]; s.resident[victim].dirty || !sealed {
			s.seal(victim)
			s.counters.UserWritebacks++
			cycles += s.sealCycles()
		}
		s.drop(victim)
	}
	if _, cold := s.images[page]; cold {
		s.counters.UserFaults++
		cycles += s.sealCycles()
		s.unseal(page)
	} else {
		cycles += s.cost.MinorFaultCycles
	}
	s.admit(page, write)
	return cycles
}

// admit makes a page resident with its reference bit set.
func (p *pages) admit(page uint64, dirty bool) {
	if n := uint64(len(p.resident)); page >= n {
		p.resident = append(p.resident, make([]pageEntry, page+1-n)...)
	}
	p.clock = append(p.clock, page)
	p.resident[page] = pageEntry{slot: int32(len(p.clock)), ref: true, dirty: dirty}
	p.peak = max(p.peak, len(p.clock))
}

// victim runs the CLOCK hand to the first resident page with a clear
// reference bit, clearing the bits it passes.
func (p *pages) victim() uint64 {
	for {
		page := p.clock[p.hand]
		ent := &p.resident[page]
		if !ent.ref {
			return page
		}
		ent.ref = false
		p.hand = (p.hand + 1) % len(p.clock)
	}
}

// drop scrubs a resident page's frame and takes the page out of the
// ring by swapping in the last element.
func (p *pages) drop(page uint64) {
	clear(p.arena.Page(page))
	slot := p.resident[page].slot
	last := len(p.clock) - 1
	moved := p.clock[last]
	p.clock[slot-1] = moved
	p.resident[moved].slot = slot
	p.clock = p.clock[:last]
	if p.hand >= len(p.clock) {
		p.hand = 0
	}
	p.resident[page] = pageEntry{}
}

// seal writes a resident page's image out under its next version:
// nonce(12) ‖ ciphertext ‖ tag(16), scrypto.SealGCM's layout.
func (p *pages) seal(page uint64) {
	p.versions[page]++
	p.initAEAD()
	n := p.aead.NonceSize()
	img := make([]byte, n, n+simmem.PageSize+p.aead.Overhead())
	if _, err := rand.Read(img); err != nil {
		panic(err)
	}
	p.images[page] = p.aead.Seal(img, img, p.arena.Page(page), p.aad(page))
}

// unseal decrypts and verifies a page's image straight into its frame.
// A failure means the untrusted side fed the enclave a tampered or
// replayed image. Real SGX locks the memory controller and forces a
// reboot; a deterministic simulator can only stop the machine the same
// way, so unseal panics with an *IntegrityError.
func (p *pages) unseal(page uint64) {
	p.initAEAD()
	img, n := p.images[page], p.aead.NonceSize()
	if len(img) < n+p.aead.Overhead() {
		panic(&IntegrityError{Page: page, Err: scrypto.ErrMalformed})
	}
	if _, err := p.aead.Open(p.arena.Page(page)[:0], img[:n], img[n:], p.aad(page)); err != nil {
		panic(&IntegrityError{Page: page, Err: scrypto.ErrAuthentication})
	}
}

func (p *pages) aad(page uint64) []byte {
	var aad [16]byte
	binary.LittleEndian.PutUint64(aad[:8], page)
	binary.LittleEndian.PutUint64(aad[8:], p.versions[page])
	return aad[:]
}

// initAEAD builds the pager's AES-GCM on first use, with
// scrypto.SealGCM's 12-byte nonce. Neither call fails for the 16-byte
// paging keys.
func (p *pages) initAEAD() {
	if p.aead != nil {
		return
	}
	block, err := aes.NewCipher(p.key)
	if err != nil {
		panic(err)
	}
	if p.aead, err = cipher.NewGCMWithNonceSize(block, 12); err != nil {
		panic(err)
	}
}

// ResidentBytes implements simmem.Residency.
func (p *pages) ResidentBytes() (resident, peak uint64) {
	return uint64(len(p.clock)) * simmem.PageSize, uint64(p.peak) * simmem.PageSize
}

// IntegrityError is thrown (as a panic, mirroring the memory
// controller lock of the hardware) when a page image fails
// authentication on reload: the untrusted side tampered with or
// replayed it.
type IntegrityError struct {
	Page uint64
	Err  error
}

// Error implements error.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("sgx: integrity failure on page %d: %v", e.Page, e.Err)
}

// Unwrap exposes the underlying authentication error.
func (e *IntegrityError) Unwrap() error { return e.Err }

// ErrSplitCacheTooSmall is returned when the requested split-cache
// budget cannot hold even a single page, or exceeds the EPC (which
// would reintroduce the hardware paging the layer exists to avoid).
var ErrSplitCacheTooSmall = errors.New("sgx: split cache must hold at least one page and fit the EPC")

// SplitMemory returns a fresh heap accessor whose in-enclave plaintext
// working set is bounded by cacheBytes; everything beyond it lives
// sealed in untrusted memory and is unsealed on demand inside the
// enclave. cacheBytes must hold at least one page and must not exceed
// the enclave's EPC budget (a larger cache would itself be paged by
// the hardware, defeating the layer).
func (e *Enclave) SplitMemory(cacheBytes uint64) (*Accessor, error) {
	if !e.inited {
		return nil, ErrNotInitialised
	}
	if cacheBytes < simmem.PageSize || cacheBytes > e.cfg.EPCBytes {
		return nil, fmt.Errorf("%w: %d bytes requested, EPC %d", ErrSplitCacheTooSmall, cacheBytes, e.cfg.EPCBytes)
	}
	key := e.dev.deriveKey("split-paging", e.mrenclave[:])[:16]
	meter := simmem.NewMeter(e.dev.cost)
	meter.SetEnclave(true)
	pager := &split{newPages(cacheBytes, key, e.dev.cost, &meter.C)}
	meter.SetPager(pager)
	return &Accessor{arena: pager.arena, meter: meter, pages: &pager.pages}, nil
}

// Accessor is the enclave-mode simmem.Accessor, over either pager:
// identical interface to the plain accessor, but accesses charge MEE
// costs on LLC misses and paging costs on residency misses. The
// matching engine code is byte-for-byte the same in every mode, as in
// the paper.
type Accessor struct {
	arena *simmem.Arena
	meter *simmem.Meter
	pages *pages
}

var _ simmem.Accessor = (*Accessor)(nil)

// Alloc implements simmem.Accessor. Newly allocated pages become
// resident immediately (they are EAUGed zero pages), which may push
// colder pages out.
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

// PageFaults returns the EPC paging events so far (the Fig. 8
// experiment); always 0 on split memory.
func (a *Accessor) PageFaults() uint64 { return a.meter.C.PageFaults }

// UserFaults returns the split cache's user-level faults (unseals) so
// far; always 0 on EPC-paged memory.
func (a *Accessor) UserFaults() uint64 { return a.meter.C.UserFaults }

// Writebacks returns the split cache's seals so far; always 0 on
// EPC-paged memory, whose write-backs are paging events.
func (a *Accessor) Writebacks() uint64 { return a.meter.C.UserWritebacks }

// ResidentPages returns the number of pages held in plaintext inside
// the enclave.
func (a *Accessor) ResidentPages() int { return len(a.pages.clock) }

// PeakResidentPages returns the residency high-water mark.
func (a *Accessor) PeakResidentPages() int { return a.pages.peak }

// CorruptPageImage flips a bit in the image of a page held in
// untrusted memory. It exists for failure-injection tests and returns
// false if the page has no image.
func (a *Accessor) CorruptPageImage(page uint64) bool {
	ct, ok := a.pages.images[page]
	if ok {
		ct[len(ct)/2] ^= 0x01
	}
	return ok
}

// PageImage returns a copy of the image of a page held in untrusted
// memory (for failure-injection tests).
func (a *Accessor) PageImage(page uint64) ([]byte, bool) {
	ct, ok := a.pages.images[page]
	return bytes.Clone(ct), ok
}

// ReplayPageImage substitutes the image of a page held in untrusted
// memory with a previously captured one, simulating a replay by the
// untrusted OS. Returns false if the page has no image.
func (a *Accessor) ReplayPageImage(page uint64, oldImage []byte) bool {
	_, ok := a.pages.images[page]
	if ok {
		a.pages.images[page] = oldImage
	}
	return ok
}
