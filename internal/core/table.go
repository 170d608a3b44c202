package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// Child tables. A node with many children — the general shard's
// sentinel, whose roots rarely cover one another, or a broad
// subscription that covers hundreds of narrower ones — would be read
// child by child along its sibling chain, header and blob, by every
// insert that reaches it and every walk that passes it. Such a node
// keeps a table of its children instead: one 32-byte entry per child, appended
// in link order into page-sized chunks of the arena, so reading it
// newest-first gives the child chain's order (linkChild only prepends).
// The chain stays; the table is a summary beside it. An entry
// summarises its child by its Subscription.Outline: the set of
// attributes it constrains and one numeric constraint — the first, in
// attribute order — or, for a child with no numeric constraint, no
// bounds ("always check" on them).
//
// The general sentinel has a table from the start, its first page taken
// with the engine. Any other node builds one when a link leaves it with
// tableMin children or more and the engine knows the count: an attach
// beneath it (whose scan read its whole chain, or which moved that many
// children under the new node), or a splice that relinks tableMin
// children or more under it. The table is built from the chain, read
// once, and lives as long as its node: Unregister releases its pages
// with the node's record. The host keeps the tables by node
// (Engine.tables); nothing in the arena marks a tabled node.
//
// The insert scans a tabled node's table instead of its chain
// (scanTable) and reads a child's header and blob only when the summary
// cannot rule out either covering direction: a child covers the
// newcomer only if its attributes are among the newcomer's and its
// interval contains the newcomer's on that attribute, and the newcomer
// covers the child only the other way round. The summary is a
// necessary-condition filter and pubsub.CoverEncoded still decides, so
// the insert finds the coverer and the covered children the chain scan
// would, in the same order. unlinkChild finds a tabled child's chain
// predecessor in the table: the next newer live entry.
//
// A walk of at most tableWalkMax events takes a tabled node's children
// from the table (pushTable): an event can pass a child only if it
// carries every attribute of the entry's set and, on the summary's
// attribute, a number within its bounds or NaN (pubsub.Columns.Admit),
// so a child that admits no event of the walk is passed over with its
// subtree, header and blob unread. Larger walks follow the chains.
//
// Entry layout:
//
//	offset size field
//	0      8    child node offset (nilOff once the child left the chain)
//	8      8    lower bound (float64 bits; -Inf when the side is open-ended)
//	16     8    upper bound (+Inf when open-ended)
//	24     2    attribute ID
//	26     1    flags: entrySummary, or 0 = always check on bounds
//	27     1    reserved
//	28     4    attribute set (pubsub.AttrSet)
//
// The filter compares bounds only — not which side is closed — so it
// may keep a child the covering test then rejects, never the reverse.
//
// Every change to a tabled node's children is a metered write: a new
// child is appended, a child that leaves the chain has its offset
// overwritten, and a full last chunk is compacted — dropped entries
// squeezed out, order kept — before a new page is taken. A table holds
// ceil(peak children / 128) pages, at least one, and an arena under
// churn still stays at its peak.
const (
	entrySize      = 32
	entriesPerPage = simmem.PageSize / entrySize

	offEntryLo    = 8
	offEntryHi    = 16
	offEntryAttr  = 24
	offEntryFlags = 26
	offEntryAttrs = 28

	entrySummary uint8 = 1
)

// tableMin is the fewest children at which a node builds its table,
// half a table page. The sweep, at 16, 32, 64 and 128 and with no
// tables but the general sentinel's: the wide rows of
// BenchmarkRegisterForest and BenchmarkMatchForest (a broad band over
// about 650 narrower ones) read the same counts at every threshold, and
// 3–8× the lookups without the band's table; scbr-bench -cliff's
// sgx-plain store (4 MB of EPC) holds 4.40 MB at 8,000 subscriptions at
// 16, so its cliff comes 1,000 subscriptions early, 4.19 MB at 9,000 at
// 32, and 4.16 MB — the footprint without tables — at 64 and 128, where
// post-cliff registration reads 15.02 and 15.08 sim-µs.
const tableMin = 64

// table is a tabled node's host-side bookkeeping: the arena pages its
// entries fill, in table order; the entries written, live and dropped;
// and each live child's entry.
type table struct {
	pages []uint64
	used  int
	at    map[uint64]int
}

// entry is the arena offset of table entry i.
func (t *table) entry(i int) uint64 {
	return t.pages[i/entriesPerPage] + uint64(i%entriesPerPage*entrySize)
}

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

// encodeEntry fills a zeroed table entry for the child at off, which
// constrains attrs and is summarised by c when ok.
func encodeEntry(dst []byte, off uint64, attrs pubsub.AttrSet, c *pubsub.Constraint, ok bool) {
	binary.LittleEndian.PutUint64(dst, off)
	binary.LittleEndian.PutUint32(dst[offEntryAttrs:], uint32(attrs))
	if !ok {
		return
	}
	lo, hi := bounds(c)
	binary.LittleEndian.PutUint64(dst[offEntryLo:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(dst[offEntryHi:], math.Float64bits(hi))
	binary.LittleEndian.PutUint16(dst[offEntryAttr:], uint16(c.ID))
	dst[offEntryFlags] = entrySummary
}

// Kinds of a newcomer's class slot.
const (
	slotFree   uint8 = iota // no constraint in the class
	slotNum                 // one attribute, constrained numerically
	slotStr                 // one attribute, constrained by a string
	slotShared              // two attributes share the class: nothing is ruled out
)

// newcomer is what ruledOut reads of the subscription being inserted,
// read once per scan: its attribute set, and per class (attribute ID
// mod 32) the first constraint of the class's attribute, its interval
// taken out of the constraint. A class two of its attributes share —
// IDs 32 apart, rare — rules nothing out, and the covering test
// decides.
type newcomer struct {
	attrs pubsub.AttrSet
	class [32]struct {
		lo, hi float64
		id     pubsub.AttrID
		kind   uint8
	}
}

// load reads sub into a zero newcomer.
func (n *newcomer) load(sub *pubsub.Subscription) {
	for i := range sub.Constraints {
		d := &sub.Constraints[i]
		n.attrs |= 1 << (d.ID % 32)
		s := &n.class[d.ID%32]
		switch {
		case s.kind == slotFree:
			s.id, s.kind = d.ID, slotNum
			if d.Str {
				s.kind = slotStr
			}
			s.lo, s.hi = bounds(d)
		case s.id != d.ID:
			s.kind = slotShared
		}
	}
}

// ruledOut reports whether the child of entry ent can neither cover the
// newcomer nor be covered by it. The child covers the newcomer only if
// its attributes are among the newcomer's and, where the entry has a
// summary, the newcomer constrains that attribute numerically within
// [lo, hi]; the newcomer covers the child only if its attributes are
// among the child's and it leaves the attribute free or contains
// [lo, hi] there. A NaN bound compares false and rules nothing out.
func (n *newcomer) ruledOut(ent []byte) bool {
	childAttrs := pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offEntryAttrs:]))
	childMay, subMay := childAttrs&^n.attrs == 0, n.attrs&^childAttrs == 0
	if ent[offEntryFlags]&entrySummary == 0 || !childMay && !subMay {
		return !childMay && !subMay
	}
	id := pubsub.AttrID(binary.LittleEndian.Uint16(ent[offEntryAttr:]))
	s := &n.class[id%32]
	dLo, dHi := s.lo, s.hi
	switch {
	case s.kind == slotShared:
		return false
	case s.kind == slotFree || s.id != id:
		return !subMay // the newcomer leaves the attribute free: the child cannot cover it
	case s.kind == slotStr:
		return true // a string and a numeric constraint cover neither way
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryLo:]))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryHi:]))
	// Without a branch on the bounds, which differ from entry to entry.
	covers := bit(childMay) & bit(!(dLo < lo)) & bit(!(dHi > hi))
	covered := bit(subMay) & bit(!(lo < dLo)) & bit(!(hi > dHi))
	return covers|covered == 0
}

// bit is 1 when b is set, else 0.
func bit(b bool) uint8 {
	var v uint8
	if b {
		v = 1
	}
	return v
}

// addEntry appends the entry of a node just linked under t's node,
// which constrains attrs and is summarised by c when ok.
func (e *Engine) addEntry(t *table, off uint64, attrs pubsub.AttrSet, c *pubsub.Constraint, ok bool) error {
	if t.used == len(t.pages)*entriesPerPage {
		if len(t.at) < t.used {
			e.compact(t)
		} else {
			page, err := e.alloc(simmem.PageSize)
			if err != nil {
				return fmt.Errorf("core: growing a child table: %w", err)
			}
			t.pages = append(t.pages, page)
		}
	}
	ent := append(e.tableBuf[:0], make([]byte, entrySize)...)
	e.tableBuf = ent
	encodeEntry(ent, off, attrs, c, ok)
	e.acc.Write(t.entry(t.used), ent)
	t.at[off] = t.used
	t.used++
	return nil
}

// addEntryFromBlob appends the entry of a node linked under t's node,
// summarised from its stored blob. A blob that does not parse gets an
// entry that rules nothing out — every attribute, no bounds — so the
// insert that reads it reports the corrupt node.
func (e *Engine) addEntryFromBlob(t *table, off uint64, h nodeHeader) error {
	attrs, c, ok, err := pubsub.OutlineEncoded(e.acc.Read(off+nodeHeaderSize, int(h.predLen)))
	if err != nil {
		attrs, ok = ^pubsub.AttrSet(0), false
	}
	return e.addEntry(t, off, attrs, &c, ok)
}

// dropEntry marks the entry of a node unlinked from t's node.
func (e *Engine) dropEntry(t *table, off uint64) {
	i := t.at[off]
	delete(t.at, off)
	e.setField(t.entry(i), 0, nilOff)
}

// tablePage returns the entries written to page p of t, or nil for a
// page past the last entry. The bytes are the arena's, valid until the
// next access.
func (e *Engine) tablePage(t *table, p int) []byte {
	n := min(t.used-p*entriesPerPage, entriesPerPage)
	if n <= 0 {
		return nil
	}
	return e.acc.Read(t.pages[p], n*entrySize)
}

// compact squeezes the dropped entries out of t, keeping the live ones
// in order. Each page is copied before any entry moves into it; a
// destination page is written once, from its first moved entry on.
func (e *Engine) compact(t *table) {
	var out [simmem.PageSize]byte
	w, from := 0, -1 // from: out's first rewritten entry, -1 for none
	flush := func(page int, to int) {
		if from >= 0 {
			e.acc.Write(t.pages[page]+uint64(from*entrySize), out[from*entrySize:to*entrySize])
			from = -1
		}
	}
	for p := range t.pages {
		src := append(e.tableBuf[:0], e.tablePage(t, p)...)
		e.tableBuf = src
		for i := 0; i < len(src)/entrySize; i++ {
			ent := src[i*entrySize : (i+1)*entrySize]
			off := leUint64(ent)
			if off == nilOff {
				continue
			}
			if slot := w % entriesPerPage; w != p*entriesPerPage+i {
				if from < 0 {
					from = slot
				}
				copy(out[slot*entrySize:], ent)
				t.at[off] = w
			}
			if w++; w%entriesPerPage == 0 {
				flush(w/entriesPerPage-1, entriesPerPage)
			}
		}
	}
	flush(w/entriesPerPage, w%entriesPerPage)
	t.used = w
}

// buildTable gives node a table of its children, read along its chain
// once (header and blob each) and appended oldest first.
func (e *Engine) buildTable(node uint64) error {
	var chain []uint64
	var predLens []uint16
	for c := e.readHeader(node).child; c != nilOff; {
		ch := e.readHeader(c)
		chain, predLens = append(chain, c), append(predLens, ch.predLen)
		c = ch.sibling
	}
	t := &table{at: make(map[uint64]int, len(chain))}
	e.tables[node] = t
	for i := len(chain) - 1; i >= 0; i-- {
		if err := e.addEntryFromBlob(t, chain[i], nodeHeader{predLen: predLens[i]}); err != nil {
			return err
		}
	}
	return nil
}

// releaseTable hands the pages of a node's table, if it has one, to
// the next allocations of a page, as Unregister releases the node.
func (e *Engine) releaseTable(node uint64) {
	t := e.tables[node]
	if t == nil {
		return
	}
	for _, page := range t.pages {
		e.release(page, simmem.PageSize)
	}
	delete(e.tables, node)
}

// prevInTable returns the chain predecessor of the live child of t's
// entry i: the next newer live entry's child, or nilOff when the child
// is the first in the chain.
func (e *Engine) prevInTable(t *table, i int) uint64 {
	for j := i + 1; j < t.used; j++ {
		if prev := leUint64(e.acc.Read(t.entry(j), 8)); prev != nilOff {
			return prev
		}
	}
	return nilOff
}

// tableRuns reads a table for scanTable: next returns its entries in
// line-aligned runs, newest run first, that double from one line to a
// page, so a scan that stops at a recent child has read about twice
// the lines it passed, not the page. A run's newest entry is its last:
// read backwards, entry by entry, the runs give the chain's order. Each
// run is a copy, since the scan reads children between its entries and
// the bytes a Read returns are valid only until the next access (a
// paged enclave scrubs an evicted page's frame).
type tableRuns struct {
	e *Engine
	t *table
	// hi is the number of entries not yet returned, the oldest ones; n
	// is the length of the next run.
	hi, n int
}

// runs starts a read of t at its newest entry.
func (e *Engine) runs(t *table) tableRuns {
	return tableRuns{e: e, t: t, hi: t.used, n: 64 / entrySize}
}

// next returns the next run of entries, or nil after the oldest. A run
// never crosses a page: runs are aligned to their length, which
// divides entriesPerPage.
func (r *tableRuns) next() []byte {
	if r.hi == 0 {
		return nil
	}
	e := r.e
	lo := (r.hi - 1) &^ (r.n - 1)
	run := append(e.tableBuf[:0], e.acc.Read(r.t.entry(lo), (r.hi-lo)*entrySize)...)
	e.tableBuf = run
	r.hi, r.n = lo, min(2*r.n, entriesPerPage)
	return run
}

// scanTable is one level of insert at a tabled node, over its table:
// newest entry first, each live entry is tested for one predicate's
// cycles, a child whose summary rules out both covering directions is
// passed over, and every other child is read and tested as the chain
// scan would. It returns the first child that covers sub (equal when
// sub covers it too), or nilOff with e.moved holding the children sub
// covers, in chain order.
func (e *Engine) scanTable(t *table, sub *pubsub.Subscription) (next uint64, equal bool, err error) {
	e.moved = e.moved[:0]
	var nc newcomer
	nc.load(sub)
	tests := uint64(0) // entries tested, charged on the way out
	runs := e.runs(t)
	for run := runs.next(); run != nil; run = runs.next() {
		for i := len(run) - entrySize; i >= 0; i -= entrySize {
			ent := run[i : i+entrySize]
			off := leUint64(ent)
			if off == nilOff {
				continue
			}
			if tests++; nc.ruledOut(ent) {
				continue
			}
			_, childCovers, subCovers, err := e.coverTest(off, sub)
			if err != nil || childCovers {
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

// tableWalkMax is the most live events a chunk may hold for its walk to
// take tabled nodes' children from their tables (pushTable) rather than
// along their chains. BenchmarkMatchForest's batch=1 to 32 rows, run
// with each walk for every chunk, are the sweep: in ns per event the
// general shard's table walk is 3.3× faster at 1 event and 10–30 % at
// 8, ties or loses at 16 and loses by a third at 32, where most roots
// admit some event and their headers are read on top of the table. A
// wide node's children overlap, and its crossover, measured on the
// wide/in rows (every event inside a band over about 650 narrower
// ones) in ten alternating pairs of the two walks at the band, is the
// same: the table walk was faster in 10/10 pairs at 1 and 2 events and
// 9/10 at 4 (19 % in the median), and tied at 8 (6/10, medians 26.2
// and 26.1 µs per event) with 13 % fewer simulated µs.
const tableWalkMax = 8

// pushTable pushes onto the walk stack the children of a tabled node
// that the events in mask may pass: the whole table is read, oldest
// page first, each live entry is tested for one predicate's cycles and
// narrows mask to the events its summary admits (Columns.Admit), and a
// child that admits some event is pushed with them, marked not to
// follow its siblings. The newest child ends on top, so the walk takes
// the children in chain order, each subtree whole before the next.
// Nothing is read between a page's entries, so they are not copied.
func (e *Engine) pushTable(stack []walkEntry, t *table, mask uint64) []walkEntry {
	tests := uint64(0)
	for p := range t.pages {
		raw := e.tablePage(t, p)
		for i := 0; i < len(raw); i += entrySize {
			ent := raw[i : i+entrySize]
			off := leUint64(ent)
			if off == nilOff {
				continue
			}
			tests++
			live := e.cols.Admit(mask,
				pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offEntryAttrs:])),
				pubsub.AttrID(binary.LittleEndian.Uint16(ent[offEntryAttr:])),
				math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryLo:])),
				math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryHi:])),
				ent[offEntryFlags]&entrySummary != 0)
			if live != 0 {
				stack = append(stack, walkEntry{off: off, live: live, alone: true})
			}
		}
	}
	e.acc.Charge(tests * e.predCycles)
	return stack
}
