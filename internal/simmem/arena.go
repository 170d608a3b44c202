package simmem

import "fmt"

// PageSize is the simulated (and SGX) page size.
const PageSize = 4096

// Arena is a paged, byte-backed bump allocator. All SCBR subscription
// state lives in an arena so that every byte the matcher touches has a
// well-defined simulated address. Allocations of up to one page never
// cross a page boundary, which lets the EPC layer treat pages as the
// unit of residency and lets Bytes return a single contiguous view.
//
// Arenas only grow; SCBR's subscription store is append-mostly and the
// paper's registration experiment (Fig. 8) populates monotonically. The
// stores built on an arena reuse what they unlink instead: the
// containment forest (core.Engine) keeps released records on free lists
// by exact size and the ASPE store keeps freed vector slots, so an arena
// under churn stays at its peak live set.
type Arena struct {
	pages [][]byte
	next  uint64 // next free offset
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Alloc reserves n bytes and returns their offset. Allocations of up to
// PageSize bytes are padded to the next page when they would straddle a
// boundary. Larger allocations are rejected: callers split their data
// into page-sized chunks (no SCBR record exceeds a page).
func (a *Arena) Alloc(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("simmem: invalid allocation size %d", n)
	}
	if n > PageSize {
		return 0, fmt.Errorf("simmem: allocation of %d bytes exceeds page size %d", n, PageSize)
	}
	if pageOf(a.next) != pageOf(a.next+uint64(n)-1) {
		a.next = (pageOf(a.next) + 1) * PageSize
	}
	off := a.next
	a.next += uint64(n)
	for int(pageOf(a.next-1)) >= len(a.pages) {
		a.pages = append(a.pages, make([]byte, PageSize))
	}
	return off, nil
}

// Size returns the number of bytes allocated so far (including padding).
func (a *Arena) Size() uint64 { return a.next }

// NumPages returns the number of backing pages.
func (a *Arena) NumPages() int { return len(a.pages) }

// Page returns the backing bytes of page p. The EPC layer uses this to
// encrypt a page out and decrypt it back in place.
func (a *Arena) Page(p uint64) []byte { return a.pages[p] }

// Bytes returns a view of [off, off+n). The range must lie within one
// page (guaranteed for any range inside a single allocation).
func (a *Arena) Bytes(off uint64, n int) []byte {
	p := pageOf(off)
	base := off - p*PageSize
	if base+uint64(n) > PageSize {
		panic(fmt.Sprintf("simmem: read of %d bytes at offset %d crosses page boundary", n, off))
	}
	return a.pages[p][base : base+uint64(n)]
}

func pageOf(off uint64) uint64 { return off / PageSize }

// PageOf exposes the page index of an offset for residency layers.
func PageOf(off uint64) uint64 { return pageOf(off) }
