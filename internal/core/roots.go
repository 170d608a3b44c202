package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// The general shard's root table. A subscription with no equality
// constraint is a root of the general shard unless another covers it,
// and such roots rarely cover one another: an insert there used to read
// every root's header and blob. The table holds one 32-byte entry per
// root, appended in link order into page-sized chunks of the arena, so
// reading it newest-first gives the root chain's order (linkChild only
// prepends). An entry summarises its root by its Subscription.Outline: the set
// of attributes it constrains and one numeric constraint — the first,
// in attribute order — or, for a root with no numeric constraint, no
// bounds ("always check" on them). The insert scans the table instead of the chain
// and reads a root's header and blob only when the summary cannot rule
// out either covering direction: a root covers the newcomer only if its
// attributes are among the newcomer's and its interval contains the
// newcomer's on that attribute, and the newcomer covers the root only
// the other way round. The summary is a necessary-condition filter and
// pubsub.CoverEncoded still decides, so the insert finds the coverer and
// the covered roots the chain scan would, in the same order.
//
// A match of a few events (walkRoots) walks the general shard from the
// table too: an event can pass a root only if it carries every
// attribute of the entry's set and, on the summary's attribute, a
// number within its bounds or NaN (pubsub.Columns.Admit), so a root
// that admits no event of the chunk is passed over with its subtree.
// Larger chunks, the equality shards and the levels below a root do not
// use the table.
//
// Entry layout:
//
//	offset size field
//	0      8    root node offset (nilOff once the root left the chain)
//	8      8    lower bound (float64 bits; -Inf when the side is open-ended)
//	16     8    upper bound (+Inf when open-ended)
//	24     2    attribute ID
//	26     1    flags: rootSummary, or 0 = always check on bounds
//	27     1    reserved
//	28     4    attribute set (pubsub.AttrSet)
//
// The filter compares bounds only — not which side is closed — so it
// may keep a root the covering test then rejects, never the reverse.
//
// Every change to the root set is a metered write: a new root is
// appended, a root that leaves the chain has its offset overwritten, and
// a full last chunk is compacted — dropped entries squeezed out, order
// kept — before a new page is taken. The first page is taken with the
// engine, after the guard page, so the table holds ceil(peak roots /
// 128) pages, at least one, and an arena under churn still stays at its
// peak.
const (
	rootEntrySize = 32
	rootsPerPage  = simmem.PageSize / rootEntrySize

	offRootLo    = 8
	offRootHi    = 16
	offRootAttr  = 24
	offRootFlags = 26
	offRootAttrs = 28

	rootSummary uint8 = 1
)

// bounds is a numeric constraint's interval, an absent side at ∓Inf.
func bounds(c *pubsub.Constraint) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if c.HasLo {
		lo = c.Lo
	}
	if c.HasHi {
		hi = c.Hi
	}
	return lo, hi
}

// encodeRoot fills a zeroed table entry for the root at off, which
// constrains attrs and is summarised by c when ok.
func encodeRoot(dst []byte, off uint64, attrs pubsub.AttrSet, c *pubsub.Constraint, ok bool) {
	binary.LittleEndian.PutUint64(dst, off)
	binary.LittleEndian.PutUint32(dst[offRootAttrs:], uint32(attrs))
	if !ok {
		return
	}
	lo, hi := bounds(c)
	binary.LittleEndian.PutUint64(dst[offRootLo:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(dst[offRootHi:], math.Float64bits(hi))
	binary.LittleEndian.PutUint16(dst[offRootAttr:], uint16(c.ID))
	dst[offRootFlags] = rootSummary
}

// ruledOut reports whether the root of entry ent can neither cover sub,
// whose attribute set is attrs, nor be covered by it. The root covers
// sub only if its attributes are among sub's and, where the entry has a
// summary, sub constrains that attribute numerically within [lo, hi];
// sub covers the root only if its attributes are among the root's and
// it leaves the attribute free or contains [lo, hi] there. A NaN bound
// compares false and rules nothing out.
func ruledOut(ent []byte, attrs pubsub.AttrSet, sub *pubsub.Subscription) bool {
	rootAttrs := pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offRootAttrs:]))
	rootMay, subMay := rootAttrs&^attrs == 0, attrs&^rootAttrs == 0
	if ent[offRootFlags]&rootSummary == 0 || !rootMay && !subMay {
		return !rootMay && !subMay
	}
	id := pubsub.AttrID(binary.LittleEndian.Uint16(ent[offRootAttr:]))
	for i := range sub.Constraints {
		d := &sub.Constraints[i]
		if d.ID != id {
			continue
		}
		if d.Str {
			return true // a string and a numeric constraint cover neither way
		}
		lo := math.Float64frombits(binary.LittleEndian.Uint64(ent[offRootLo:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(ent[offRootHi:]))
		dLo, dHi := bounds(d)
		rootMay = rootMay && !(dLo < lo || dHi > hi)
		subMay = subMay && !(lo < dLo || hi > dHi)
		return !rootMay && !subMay
	}
	return !subMay // sub leaves the attribute free: the root cannot cover it
}

// rootEntry is the arena offset of table entry i.
func (e *Engine) rootEntry(i int) uint64 {
	return e.rootPages[i/rootsPerPage] + uint64(i%rootsPerPage*rootEntrySize)
}

// addRoot appends the entry of a node just linked under the general
// sentinel, which constrains attrs and is summarised by c when ok.
func (e *Engine) addRoot(off uint64, attrs pubsub.AttrSet, c *pubsub.Constraint, ok bool) error {
	if e.rootUsed == len(e.rootPages)*rootsPerPage {
		if len(e.rootAt) < e.rootUsed {
			e.compactRoots()
		} else {
			page, err := e.alloc(simmem.PageSize)
			if err != nil {
				return fmt.Errorf("core: growing the root table: %w", err)
			}
			e.rootPages = append(e.rootPages, page)
		}
	}
	ent := append(e.rootBuf[:0], make([]byte, rootEntrySize)...)
	e.rootBuf = ent
	encodeRoot(ent, off, attrs, c, ok)
	e.acc.Write(e.rootEntry(e.rootUsed), ent)
	e.rootAt[off] = e.rootUsed
	e.rootUsed++
	return nil
}

// addRootFromBlob appends the entry of a node relinked under the
// general sentinel, summarised from its stored blob. A blob that does
// not parse gets an entry that rules nothing out — every attribute, no
// bounds — so the insert that reads it reports the corrupt node.
func (e *Engine) addRootFromBlob(off uint64, h nodeHeader) error {
	attrs, c, ok, err := pubsub.OutlineEncoded(e.acc.Read(off+nodeHeaderSize, int(h.predLen)))
	if err != nil {
		attrs, ok = ^pubsub.AttrSet(0), false
	}
	return e.addRoot(off, attrs, &c, ok)
}

// dropRoot marks the entry of a node unlinked from the general sentinel.
func (e *Engine) dropRoot(off uint64) {
	i := e.rootAt[off]
	delete(e.rootAt, off)
	e.setField(e.rootEntry(i), 0, nilOff)
}

// compactRoots squeezes the dropped entries out of the table, keeping
// the live ones in order. Each page is copied before any entry moves
// into it; a destination page is written once, from its first moved
// entry on.
func (e *Engine) compactRoots() {
	var out [simmem.PageSize]byte
	w, from := 0, -1 // from: out's first rewritten entry, -1 for none
	flush := func(page int, to int) {
		if from >= 0 {
			e.acc.Write(e.rootPages[page]+uint64(from*rootEntrySize), out[from*rootEntrySize:to*rootEntrySize])
			from = -1
		}
	}
	for p := range e.rootPages {
		n := min(e.rootUsed-p*rootsPerPage, rootsPerPage)
		if n <= 0 {
			break
		}
		src := append(e.rootBuf[:0], e.acc.Read(e.rootPages[p], n*rootEntrySize)...)
		e.rootBuf = src
		for i := 0; i < n; i++ {
			ent := src[i*rootEntrySize : (i+1)*rootEntrySize]
			off := leUint64(ent)
			if off == nilOff {
				continue
			}
			if slot := w % rootsPerPage; w != p*rootsPerPage+i {
				if from < 0 {
					from = slot
				}
				copy(out[slot*rootEntrySize:], ent)
				e.rootAt[off] = w
			}
			if w++; w%rootsPerPage == 0 {
				flush(w/rootsPerPage-1, rootsPerPage)
			}
		}
	}
	flush(w/rootsPerPage, w%rootsPerPage)
	e.rootUsed = w
}

// rootRuns reads the table for scanRoots and walkRoots: next returns
// its entries in line-aligned runs, newest run first, that double from
// one line to a page, so a scan that stops at a recent root has read about twice the
// lines it passed, not the page. A run's newest entry is its last: read
// backwards, entry by entry, the runs give the root chain's order. Each
// run is a copy, since callers read roots between its entries and the
// bytes a Read returns are valid only until the next access (a paged
// enclave scrubs an evicted page's frame).
type rootRuns struct {
	e *Engine
	// hi is the number of entries not yet returned, the oldest ones; n
	// is the length of the next run.
	hi, n int
}

// rootRuns starts a read of the table at its newest entry.
func (e *Engine) rootRuns() rootRuns {
	return rootRuns{e: e, hi: e.rootUsed, n: 64 / rootEntrySize}
}

// next returns the next run of entries, or nil after the oldest. A run
// never crosses a page: runs are aligned to their length, which
// divides rootsPerPage.
func (r *rootRuns) next() []byte {
	if r.hi == 0 {
		return nil
	}
	e := r.e
	lo := (r.hi - 1) &^ (r.n - 1)
	run := append(e.rootBuf[:0], e.acc.Read(e.rootEntry(lo), (r.hi-lo)*rootEntrySize)...)
	e.rootBuf = run
	r.hi, r.n = lo, min(2*r.n, rootsPerPage)
	return run
}

// scanRoots is one level of insert at the general shard, over the table:
// newest entry first, each live entry is tested for one predicate's
// cycles, a root whose summary rules out both covering directions is
// passed over, and every other root is read and tested as the chain scan
// would. It returns the first root that covers sub (equal when sub
// covers it too), or nilOff with e.moved holding the roots sub covers,
// in chain order.
func (e *Engine) scanRoots(sub *pubsub.Subscription) (next uint64, equal bool, err error) {
	e.moved = e.moved[:0]
	attrs, _, _ := sub.Outline()
	tests := uint64(0) // entries tested, charged on the way out
	runs := e.rootRuns()
	for run := runs.next(); run != nil; run = runs.next() {
		for i := len(run) - rootEntrySize; i >= 0; i -= rootEntrySize {
			ent := run[i : i+rootEntrySize]
			off := leUint64(ent)
			if off == nilOff {
				continue
			}
			if tests++; ruledOut(ent, attrs, sub) {
				continue
			}
			_, rootCovers, subCovers, err := e.coverTest(off, sub)
			if err != nil || rootCovers {
				e.acc.Charge(tests * e.predCycles)
				return off, subCovers, err
			}
			if subCovers {
				e.moved = append(e.moved, off)
			}
		}
	}
	e.acc.Charge(tests * e.predCycles)
	return nilOff, false, nil
}

// rootWalkMax is the most live events a chunk may hold for matchChunk
// to walk the general shard from its root table (walkRoots) rather than
// along its root chain. BenchmarkMatchForest's batch=1 to 32 rows, run
// with each walk for every chunk, are the sweep: in ns per event the
// table walk is 3.3× faster at 1 event and 10–30 % at 8, ties or loses
// at 16 and loses by a third at 32, where most roots admit some event
// and their headers are read on top of the table.
const rootWalkMax = 8

// walkRoots is the general shard's walk for a chunk of at most
// rootWalkMax live events (mask), over the table: newest entry first,
// each live entry is tested for one predicate's cycles and narrows the
// chunk's events to those its summary admits (Columns.Admit); a root
// that admits none is passed over with its subtree, header and blob
// unread, and every other root's subtree is walked for the events it
// admits, whole, before the next entry. Entries are in chain order, so
// each event's results come out as the chain walk gives them. It
// returns what walkForest does; an event that failed is not carried to
// later roots.
func (e *Engine) walkRoots(mask uint64, out [][]MatchResult) (failed uint64, err error) {
	tests := uint64(0) // entries tested, charged on the way out
	runs := e.rootRuns()
table:
	for run := runs.next(); run != nil; run = runs.next() {
		for i := len(run) - rootEntrySize; i >= 0; i -= rootEntrySize {
			ent := run[i : i+rootEntrySize]
			off := leUint64(ent)
			if off == nilOff {
				continue
			}
			tests++
			live := e.cols.Admit(mask&^failed,
				pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offRootAttrs:])),
				pubsub.AttrID(binary.LittleEndian.Uint16(ent[offRootAttr:])),
				math.Float64frombits(binary.LittleEndian.Uint64(ent[offRootLo:])),
				math.Float64frombits(binary.LittleEndian.Uint64(ent[offRootHi:])),
				ent[offRootFlags]&rootSummary != 0)
			if live == 0 {
				continue
			}
			f, werr := e.walkForest(off, live, false, out)
			if err == nil {
				err = werr
			}
			if failed |= f; failed == mask {
				break table // every event failed: nothing is left to walk
			}
		}
	}
	e.acc.Charge(tests * e.predCycles)
	return failed, err
}
