package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// Child tables. A node with many children — the general shard's
// sentinel, whose roots rarely cover one another, or a broad
// subscription that covers hundreds of narrower ones — would be read
// child by child along its sibling chain, header and blob, by every
// insert that reaches it and every walk that passes it. Such a node
// keeps a table of its children instead: one 32-byte entry per child,
// held in an interval index in the arena (below), the table's only
// copy. The chain stays; the table is a summary beside it. An entry
// summarises its child by its Subscription.Outline: the set of
// attributes it constrains and one numeric constraint — the first, in
// attribute order — or, for a child with no numeric constraint, no
// bounds ("always check" on them).
//
// The general sentinel has a table from the start, its index's first
// directory page taken with the engine. Any other node builds one when
// a link leaves it with tableMin children or more and the engine knows
// the count: an attach beneath it (whose scan read its whole chain, or
// which moved that many children under the new node), or a splice that
// relinks tableMin children or more under it. The table is built from
// the chain, read once, and lives as long as its node: Unregister
// releases its index's leaves and directory pages with the node's
// record. The host keeps the tables by node (Engine.tables) and, per
// table, the count of the links made under the node. Each child's entry
// carries its link sequence beside its offset: the count when it was
// linked, so that the later a child was linked, the higher its sequence
// and the nearer the head of the chain (linkChild only prepends). No
// bound and no key leaves the enclave, and nothing in the arena marks a
// tabled node.
//
// The insert reads a tabled node's index and, through it, only the
// entries that may name a child covering the newcomer or covered by it.
// Each of those is tested against its summary (newcomer.ruledOut), and
// a child's header and blob are read only when the summary cannot rule
// out either covering direction: a child covers the newcomer only if
// its attributes are among the newcomer's and its interval contains
// the newcomer's on that attribute, and the newcomer covers the child
// only the other way round. The summary is a necessary-condition filter
// and pubsub.CoverEncoded still decides, in chain order, so the insert
// finds the coverer and the covered children the chain scan would, in
// the same order.
//
// A walk of at most tableWalkMax events takes a tabled node's children
// from its index (pushTable): an event can pass a child only if it
// carries every attribute of the entry's set and, on the summary's
// attribute, a number within its bounds or NaN (pubsub.Columns.Admit),
// so a child that admits no event of the walk is passed over with its
// subtree, header and blob unread. Larger walks follow the chains.
//
// Entry layout:
//
//	offset size field
//	0      4    child node offset
//	4      4    link sequence
//	8      8    lower bound (float64 bits; -Inf when the side is open-ended)
//	16     8    upper bound (+Inf when open-ended)
//	24     2    attribute ID
//	26     1    flags: entrySummary, or 0 = always check on bounds
//	27     1    reserved
//	28     4    attribute set (pubsub.AttrSet)
//
// The filter compares bounds only — not which side is closed — so it
// may keep a child the covering test then rejects, never the reverse.
// The offset and the sequence are one little-endian word, read with the
// entry, so a child is put in chain order without a host lookup. Every
// record lies below 4 GiB of arena (alloc), so the offset fits; a table
// whose links reach maxLinks renumbers its entries from the chain, as
// buildTable sequences them.
//
// Every change to a tabled node's children is a metered change to its
// index: a new child's entry is inserted, and a child that leaves the
// chain has its entry, keyed by what its stored blob outlines, taken
// out. Leaving the chain needs no table: a node's header links it to
// its chain predecessor (node.go).
const (
	entrySize = 32

	offEntryLo    = 8
	offEntryHi    = 16
	offEntryAttr  = 24
	offEntryFlags = 26
	offEntryAttrs = 28

	entrySummary uint8 = 1

	// maxLinks is one past the largest link sequence an entry holds.
	maxLinks = 1 << 32
)

// tableMin is the fewest children at which a node builds its table.
// The sweep, at 16, 32, 64 and 128 and with no tables but the general
// sentinel's: the wide rows of BenchmarkRegisterForest and
// BenchmarkMatchForest (a broad band over about 650 narrower ones) read
// the same counts at every threshold, and 3–8× the lookups without the
// band's table; scbr-bench -cliff's sgx-plain store (4 MB of EPC) holds
// 4.40 MB at 8,000 subscriptions at 16, so its cliff comes 1,000
// subscriptions early, 4.19 MB at 9,000 at 32, and 4.16 MB — the
// footprint without tables — at 64 and 128, where post-cliff
// registration reads 15.02 and 15.08 sim-µs.
const tableMin = 64

// table is a tabled node's host-side bookkeeping: the sequence the next
// link takes, and the pages of its index's directory and the number of
// leaves it lists. Which leaf holds which child, in what order and with
// what sequence, is in the arena only.
type table struct {
	links  int
	dir    []uint64
	leaves int
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

// encodeEntry fills a zeroed table entry for the child at off, linked
// seq-th, which constrains attrs and is summarised by c when ok.
func encodeEntry(dst []byte, off uint64, seq int, attrs pubsub.AttrSet, c *pubsub.Constraint, ok bool) {
	binary.LittleEndian.PutUint64(dst, uint64(seq)<<32|off)
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

// entryChild is the offset of the child of entry ent.
func entryChild(ent []byte) uint64 { return uint64(leUint32(ent)) }

// bit is 1 when b is set, else 0.
func bit(b bool) uint8 {
	var v uint8
	if b {
		v = 1
	}
	return v
}

// addEntry gives the node just linked under t's node, node, at off,
// which constrains attrs and is summarised by c when ok, the next link
// sequence and indexes its entry. A table whose links have reached
// maxLinks renumbers its entries first.
func (e *Engine) addEntry(t *table, node, off uint64, attrs pubsub.AttrSet, c *pubsub.Constraint, ok bool) error {
	if t.links == maxLinks {
		if err := e.renumber(t, node); err != nil {
			return err
		}
	}
	ent := e.entry(off, t.links, attrs, c, ok)
	t.links++
	return e.indexInsert(t, ent)
}

// entry encodes the entry of the child at off, linked seq-th, into the
// engine's scratch, valid until the next call.
func (e *Engine) entry(off uint64, seq int, attrs pubsub.AttrSet, c *pubsub.Constraint, ok bool) []byte {
	ent := e.entBuf[:]
	clear(ent)
	encodeEntry(ent, off, seq, attrs, c, ok)
	return ent
}

// outlineFromBlob summarises a node linked under a tabled node from its
// stored blob. A blob that does not parse gets an entry that rules
// nothing out — every attribute, no bounds — so the insert that reads it
// reports the corrupt node.
func (e *Engine) outlineFromBlob(off uint64, h nodeHeader) (pubsub.AttrSet, pubsub.Constraint, bool) {
	attrs, c, ok, err := pubsub.OutlineEncoded(e.acc.Read(off+nodeHeaderSize, int(h.predLen)))
	if err != nil {
		attrs, ok = ^pubsub.AttrSet(0), false
	}
	return attrs, c, ok
}

// addEntryFromBlob indexes the entry of a node linked under t's node,
// node, summarised from its stored blob.
func (e *Engine) addEntryFromBlob(t *table, node, off uint64, h nodeHeader) error {
	attrs, c, ok := e.outlineFromBlob(off, h)
	return e.addEntry(t, node, off, attrs, &c, ok)
}

// dropEntry takes the entry of a node unlinked from t's node, whose
// header is h, out of the index: its key is what its stored blob
// outlines, as when it was linked.
func (e *Engine) dropEntry(t *table, off uint64, h nodeHeader) error {
	attrs, c, ok := e.outlineFromBlob(off, h)
	return e.indexRemove(t, e.entry(off, 0, attrs, &c, ok))
}

// buildTable gives node a table of its children, read along its chain
// once (header and blob each), sequenced oldest first, and bulk-loads
// the table's index.
func (e *Engine) buildTable(node uint64) error {
	var chain []uint64
	var predLens []uint16
	for c := e.readHeader(node).child; c != nilOff; {
		ch := e.readHeader(c)
		chain, predLens = append(chain, c), append(predLens, ch.predLen)
		c = ch.sibling
	}
	t := &table{links: len(chain)}
	e.tables[node] = t
	ents := make([]byte, 0, len(chain)*entrySize)
	for i := len(chain) - 1; i >= 0; i-- {
		attrs, c, ok := e.outlineFromBlob(chain[i], nodeHeader{predLen: predLens[i]})
		ents = append(ents, e.entry(chain[i], len(chain)-1-i, attrs, &c, ok)...)
	}
	return e.loadIndex(t, ents)
}

// renumber sequences the entries of t, node's table, from node's chain,
// read once, as buildTable does: oldest first from 0, each leaf
// rewritten in place. The head of the chain may be a child not yet
// indexed; the next link takes the sequence after the chain's.
func (e *Engine) renumber(t *table, node uint64) error {
	var chain []uint64
	for c := e.readHeader(node).child; c != nilOff; c = e.readHeader(c).sibling {
		chain = append(chain, c)
	}
	seq := make(map[uint64]int, len(chain))
	for i, c := range chain {
		seq[c] = len(chain) - 1 - i
	}
	for j := 0; j < t.leaves; j++ {
		d := e.readDir(t, j)
		ents := e.readLeaf(&d)
		for i := 0; i < len(ents); i += entrySize {
			off := entryChild(ents[i:])
			s, ok := seq[off]
			if !ok {
				return fmt.Errorf("core: child %d of node %d's table is missing from its chain", off, node)
			}
			binary.LittleEndian.PutUint64(ents[i:], uint64(s)<<32|off)
		}
		e.acc.Write(d.leaf, ents)
	}
	t.links = len(chain)
	return nil
}

// scanTable is one level of insert at a tabled node, through its index:
// every directory entry is tested for one predicate's cycles, and the
// leaves that may hold a coverer or a covered child (newcomer.mayHold)
// are read; each of their entries is tested for one predicate's cycles,
// and the children whose summaries do not rule out both covering
// directions are read and tested, newest first, as the chain scan would.
// It returns the first child that covers sub (equal when sub covers it
// too), or nilOff with e.moved holding the children sub covers, in
// chain order.
func (e *Engine) scanTable(t *table, sub *pubsub.Subscription) (next uint64, equal bool, err error) {
	e.moved = e.moved[:0]
	var nc newcomer
	nc.load(sub)
	tests := uint64(0) // entries tested, charged on the way out
	reads := e.leafReads[:0]
	// The directory is read dirRun entries at a time, so a scan that
	// stops early has read little past the leaf it stopped at. A leaf is
	// tested once the next one is read: its lower bounds end at the next
	// one's first.
	var prev leafSummary
	lastRead := false
	for j, runEnd := 0, 0; j < t.leaves; j++ {
		if j == runEnd {
			runEnd = min(t.leaves, j+dirRun)
			e.dirBuf = e.readDirs(t, j, runEnd, e.dirBuf[:0])
		}
		d := decodeDir(e.dirBuf[len(e.dirBuf)-(runEnd-j)*dirEntrySize:])
		tests++
		if j > 0 && nc.mayHold(&prev, &d) {
			reads = append(reads, prev)
		}
		prev = d
		if j+1 == t.leaves {
			if nc.mayHold(&d, nil) {
				reads = append(reads, d)
			}
		} else if !lastRead && nc.beyond(&d) {
			// Every later leaf starts further beyond; if they all hold
			// d's attribute alone, none of them, d included, holds a
			// child to test.
			lastRead = true
			if last := e.readDir(t, t.leaves-1); last.flags&(dirAlways|dirOneAttr) == dirOneAttr && last.firstAttr == d.firstAttr {
				break
			}
		}
	}
	e.leafReads = reads
	cands := e.cands[:0]
	for _, d := range reads {
		raw := e.acc.Read(d.leaf, d.count*entrySize)
		tests += uint64(d.count)
		for i := 0; i < len(raw); i += entrySize {
			if ent := raw[i : i+entrySize]; !nc.ruledOut(ent) {
				w := leUint64(ent)
				cands = append(cands, tableCand{seq: w >> 32, off: w & math.MaxUint32})
			}
		}
	}
	e.cands = cands
	for _, c := range e.inChainOrder(cands) {
		_, childCovers, subCovers, err := e.coverTest(c.off, sub)
		if err != nil || childCovers {
			e.acc.Charge(tests * e.predCycles)
			return c.off, subCovers, err
		}
		if subCovers {
			e.moved = append(e.moved, c.off)
		}
	}
	e.acc.Charge(tests * e.predCycles)
	return nilOff, false, nil
}

// tableCand is a child a table's index could not rule out: its link
// sequence, its offset and, for a walk, the events its entry admits.
type tableCand struct {
	seq  uint64
	off  uint64
	live uint64
}

// insertionMax is the most candidates inChainOrder sorts by insertion;
// more take a radix sort. The two cross near 64 keys: a lone walk on
// `pipe` sorts a few, one on `match` a hundred or more
// (docs/benchmarks.md, "Chain order from the entries").
const insertionMax = 64

// inChainOrder returns the candidates taken from a table's index as its
// node's child chain runs, the latest link first, in the engine's
// scratch. It sorts one integer per candidate, its link sequence above
// its index in cands: by insertion when there are few, else by a radix
// sort of the sequence's bits alone, since no two candidates share a
// sequence. Sequences are below maxLinks, so no key overflows.
func (e *Engine) inChainOrder(cands []tableCand) []tableCand {
	shift := bits.Len(uint(len(cands)))
	keys := e.candKeys[:0]
	for i, c := range cands {
		keys = append(keys, c.seq<<shift|uint64(i))
	}
	if len(keys) <= insertionMax {
		for i := 1; i < len(keys); i++ {
			k, j := keys[i], i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
	} else {
		keys = e.radixSort(keys, shift)
	}
	sorted := e.sorted[:0]
	for i := len(keys) - 1; i >= 0; i-- {
		sorted = append(sorted, cands[keys[i]&(1<<shift-1)])
	}
	e.candKeys, e.sorted = keys, sorted
	return sorted
}

// radixSort sorts keys by their bits from bit lo up, a byte at a time,
// least significant first, between keys and the engine's second key
// buffer, skipping the bytes every key shares; keys equal there keep
// their order. It returns the buffer that holds them sorted and keeps
// the other.
func (e *Engine) radixSort(keys []uint64, lo int) []uint64 {
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	src, dst := keys, slices.Grow(e.radixBuf[:0], len(keys))[:len(keys)]
	for d := lo; diff>>d != 0; d += 8 {
		if diff>>d&0xff == 0 {
			continue
		}
		var start [256]int
		for _, k := range src {
			start[k>>d&0xff]++
		}
		n := 0
		for b, c := range start {
			start[b], n = n, n+c
		}
		for _, k := range src {
			b := k >> d & 0xff
			dst[start[b]] = k
			start[b]++
		}
		src, dst = dst, src
	}
	e.radixBuf = dst[:0]
	return src
}

// tableWalkMax is the most live events a chunk may hold for its walk to
// take tabled nodes' children from their indexes (pushTable) rather than
// along their chains. The sweep, with the walk reading the index: 8, 16
// and 32 in ten alternating rounds of BenchmarkMatchForest's batch=16
// and batch=32 rows, plain and wide/in (every event inside a band over
// about 650 narrower ones). In simulated µs the index walk wins at both
// sizes — about half the chain walk's, since it tests each entry once
// for the whole chunk — but in ns per event it lost every pair on the
// general shard, by 40 % in the median at 16 and 95 % at 32, where
// most of its roots admit some event and are put into chain order and
// read on top of the index; on wide/in it tied at 16 (5/10) and lost
// at 32 (9/10, 33 %). So 8 stays (docs/benchmarks.md, "One copy of
// each entry").
const tableWalkMax = 8

// pushTable pushes onto the walk stack the children of a tabled node
// that the events in mask may pass, through its index. The directory is
// read whole, each of its entries is tested for one predicate's cycles,
// and a leaf is read only when its directory entry admits some event
// (Columns.Admit): every entry's attribute set holds the intersection,
// and on a leaf of one attribute with no always-check entry every
// lower bound is at least the first and every upper bound at most the
// largest, rounded outward, so a leaf may be read for nothing but is
// never skipped while it names a child some event may pass. Each entry
// of a leaf read is tested for one predicate's cycles and narrows mask
// to the events its summary admits, and the children that admit some
// event are pushed with them, marked not to follow their siblings, in
// chain order with the latest link on top: the walk takes them as the
// chain runs, each subtree whole before the next. Nothing is read
// between a leaf's entries, so they are not copied.
func (e *Engine) pushTable(stack []walkEntry, t *table, mask uint64) []walkEntry {
	e.dirBuf = e.readDirs(t, 0, t.leaves, e.dirBuf[:0])
	tests := uint64(t.leaves)
	cands := e.cands[:0]
	for j := 0; j < t.leaves; j++ {
		d := decodeDir(e.dirBuf[j*dirEntrySize:])
		if e.cols.Admit(mask, d.inter, d.firstAttr, d.firstLo, float64(d.maxHi), d.flags&(dirAlways|dirOneAttr) == dirOneAttr) == 0 {
			continue
		}
		raw := e.acc.Read(d.leaf, d.count*entrySize)
		tests += uint64(d.count)
		for i := 0; i < len(raw); i += entrySize {
			ent := raw[i : i+entrySize]
			live := e.cols.Admit(mask,
				pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offEntryAttrs:])),
				pubsub.AttrID(binary.LittleEndian.Uint16(ent[offEntryAttr:])),
				math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryLo:])),
				math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryHi:])),
				ent[offEntryFlags]&entrySummary != 0)
			if live != 0 {
				w := leUint64(ent)
				cands = append(cands, tableCand{seq: w >> 32, off: w & math.MaxUint32, live: live})
			}
		}
	}
	e.cands = cands
	sorted := e.inChainOrder(cands)
	for i := len(sorted) - 1; i >= 0; i-- {
		stack = append(stack, walkEntry{off: sorted[i].off, live: sorted[i].live, alone: true})
	}
	e.acc.Charge(tests * e.predCycles)
	return stack
}

// The interval index. Every table keeps its 32-byte entries sorted by
// key — summary attribute,
// then lower bound; the entries with no usable summary (no numeric
// constraint, a NaN bound or one above the other, a corrupt blob) after
// all others — in leaves of at most leafEntries entries, each leaf an
// arena record of its own, and a directory that lists the leaves in key
// order on pages of its own: per leaf its first key, the largest and
// smallest upper bound of its summarised entries, the union and
// intersection of its entries' attribute sets, its record and its entry
// count. Every leaf is sorted and no key is below the one before it,
// leaf to leaf, so a leaf's lower bounds run from its first key to the
// next leaf's, and none is above its largest upper bound.
//
// The insert reads the directory and only the leaves that may hold a
// child the newcomer's summary does not rule out (mayHold): a coverer
// needs a lower bound at most the newcomer's and an upper bound at
// least its own, a covered child the other way round, and a child that
// constrains an attribute the newcomer leaves free can only be covered,
// when it holds all the newcomer's attributes. A leaf that holds an
// entry with no usable summary is always read. On an attribute the
// newcomer constrains numerically, the directory is read no further
// than the first leaf that starts above the newcomer's interval when
// every later leaf holds that attribute alone (beyond). The entries of
// the leaves read that ruledOut keeps are the ones a scan of every
// entry would keep, and the insert tests them in chain order, so it
// reads the children the chain scan reads, in the same order. A walk
// reads the whole directory and the leaves whose span admits an event
// (pushTable).
//
// The index changes only through the metered accessor: a new child's
// entry is inserted in the leaf whose range holds its key
// (a full leaf splits in two, and the directory after it moves up one
// entry), a child's entry is found through the directory by its key
// and taken out (a leaf left empty is released, one left under a
// quarter full merges with a neighbour when the two fill at most half a
// leaf), a table built from its chain is bulk-loaded three quarters
// full, and a table's leaves and directory pages are released with it.
// The host knows how many leaves a table has, never which child is
// where: the order of the bounds stays in the enclave's memory.
//
// Directory entry layout:
//
//	offset size field
//	0      8    lower bound of the first entry (float64 bits; 0 when it has no summary)
//	8      4    largest upper bound, float32 bits rounded up (-Inf for none)
//	12     4    smallest upper bound, float32 bits rounded down (+Inf for none)
//	16     4    union of the entries' attribute sets
//	20     4    intersection of the entries' attribute sets
//	24     2    attribute of the first entry (0 when it has no summary)
//	26     4    leaf record offset
//	30     1    entry count
//	31     1    flags: dirAlways, dirFirstAlways, dirOneAttr
//
// The upper bounds are kept in float32, rounded away from the leaf's
// entries, so that a directory entry is half a cache line and a test
// against them may read a leaf for nothing, never skip one it needs.
const (
	// leafEntries is the most entries a leaf holds. In the sweep, at 8,
	// 16, 32 and 64, 32 looked up the fewest lines per insert on every
	// row of BenchmarkRegisterForest but subs=10000, where 64 read 2 %
	// more and 1 % fewer simulated µs (docs/benchmarks.md, "One index
	// per table").
	leafEntries  = 32
	leafSize     = leafEntries * entrySize
	dirEntrySize = 32
	dirPerPage   = simmem.PageSize / dirEntrySize
	// dirRun is the directory entries the insert reads at a time, two
	// lines. On the wide rows of BenchmarkRegisterForest, runs doubling
	// from a line to a page read 3–6 more lookups per insert, and runs
	// of one line as many as two with twice the accessor calls.
	dirRun = 128 / dirEntrySize

	offDirFirstLo   = 0
	offDirMaxHi     = 8
	offDirMinHi     = 12
	offDirUnion     = 16
	offDirInter     = 20
	offDirFirstAttr = 24
	offDirLeaf      = 26
	offDirCount     = 30
	offDirFlags     = 31

	dirAlways      uint8 = 1 // the leaf holds an entry with no usable summary
	dirFirstAlways uint8 = 2 // its first entry is one
	dirOneAttr     uint8 = 4 // its summarised entries all constrain the first entry's attribute
)

// leafSummary is a decoded directory entry.
type leafSummary struct {
	firstLo      float64
	maxHi, minHi float32
	union, inter pubsub.AttrSet
	firstAttr    pubsub.AttrID
	leaf         uint64
	count        int
	flags        uint8
}

func decodeDir(raw []byte) leafSummary {
	return leafSummary{
		firstLo:   math.Float64frombits(binary.LittleEndian.Uint64(raw[offDirFirstLo:])),
		maxHi:     math.Float32frombits(binary.LittleEndian.Uint32(raw[offDirMaxHi:])),
		minHi:     math.Float32frombits(binary.LittleEndian.Uint32(raw[offDirMinHi:])),
		union:     pubsub.AttrSet(binary.LittleEndian.Uint32(raw[offDirUnion:])),
		inter:     pubsub.AttrSet(binary.LittleEndian.Uint32(raw[offDirInter:])),
		firstAttr: pubsub.AttrID(binary.LittleEndian.Uint16(raw[offDirFirstAttr:])),
		leaf:      uint64(binary.LittleEndian.Uint32(raw[offDirLeaf:])),
		count:     int(raw[offDirCount]),
		flags:     raw[offDirFlags],
	}
}

func (s *leafSummary) encode(dst []byte) {
	binary.LittleEndian.PutUint64(dst[offDirFirstLo:], math.Float64bits(s.firstLo))
	binary.LittleEndian.PutUint32(dst[offDirMaxHi:], math.Float32bits(s.maxHi))
	binary.LittleEndian.PutUint32(dst[offDirMinHi:], math.Float32bits(s.minHi))
	binary.LittleEndian.PutUint32(dst[offDirUnion:], uint32(s.union))
	binary.LittleEndian.PutUint32(dst[offDirInter:], uint32(s.inter))
	binary.LittleEndian.PutUint16(dst[offDirFirstAttr:], uint16(s.firstAttr))
	binary.LittleEndian.PutUint32(dst[offDirLeaf:], uint32(s.leaf))
	dst[offDirCount] = uint8(s.count)
	dst[offDirFlags] = s.flags
}

// entryKey is an entry's place in the index: entries with no usable
// summary after all others, in any order among themselves; the others
// by attribute, then lower bound.
type entryKey struct {
	always bool
	attr   pubsub.AttrID
	lo     float64
}

// keyOfEntry is the key of a table entry.
func keyOfEntry(ent []byte) entryKey {
	lo := math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryLo:]))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryHi:]))
	if ent[offEntryFlags]&entrySummary == 0 || !(lo <= hi) {
		return entryKey{always: true}
	}
	return entryKey{attr: pubsub.AttrID(binary.LittleEndian.Uint16(ent[offEntryAttr:])), lo: lo}
}

// first is the key of the leaf's first entry.
func (s *leafSummary) first() entryKey {
	if s.flags&dirFirstAlways != 0 {
		return entryKey{always: true}
	}
	return entryKey{attr: s.firstAttr, lo: s.firstLo}
}

func (k entryKey) compare(o entryKey) int {
	switch {
	case k.always || o.always:
		return cmp.Compare(bit(k.always), bit(o.always))
	case k.attr != o.attr:
		return cmp.Compare(k.attr, o.attr)
	}
	return cmp.Compare(k.lo, o.lo)
}

// down32 is the greatest float32 not above v, up32 the least not below.
func down32(v float64) float32 {
	switch f := float32(v); {
	case math.IsInf(v, 0):
		return f
	case v < -math.MaxFloat32:
		return float32(math.Inf(-1))
	case v > math.MaxFloat32:
		return math.MaxFloat32
	case float64(f) <= v:
		return f
	case f > 0:
		return math.Float32frombits(math.Float32bits(f) - 1)
	case f < 0:
		return math.Float32frombits(math.Float32bits(f) + 1)
	default: // a negative v too close to zero for a float32
		return -math.SmallestNonzeroFloat32
	}
}

func up32(v float64) float32 { return -down32(-v) }

// summarize is the directory entry of the leaf at leaf holding ents, in
// key order.
func summarize(leaf uint64, ents []byte) leafSummary {
	s := leafSummary{
		maxHi: float32(math.Inf(-1)), minHi: float32(math.Inf(1)),
		inter: ^pubsub.AttrSet(0), leaf: leaf, count: len(ents) / entrySize,
		flags: dirOneAttr,
	}
	for i := 0; i < len(ents); i += entrySize {
		ent := ents[i : i+entrySize]
		attrs := pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offEntryAttrs:]))
		s.union, s.inter = s.union|attrs, s.inter&attrs
		k := keyOfEntry(ent)
		switch {
		case k.always:
			s.flags |= dirAlways
			if i == 0 {
				s.flags |= dirFirstAlways
			}
			continue
		case i == 0:
			s.firstLo, s.firstAttr = k.lo, k.attr
		case k.attr != s.firstAttr:
			s.flags &^= dirOneAttr
		}
		hi := math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryHi:]))
		if up := up32(hi); up > s.maxHi {
			s.maxHi = up
		}
		if down := down32(hi); down < s.minHi {
			s.minHi = down
		}
	}
	return s
}

// mayHold reports whether the leaf d lists may hold an entry ruledOut
// keeps; next is the directory's next entry, or nil after the last. It
// asks what ruledOut asks of each entry, of the leaf's bounds: a child
// may cover the newcomer only where the intersection of the leaf's
// attribute sets is among the newcomer's attributes, its first lower
// bound is at most the newcomer's and its largest upper bound at least
// the newcomer's; the newcomer may cover a child only where the union
// holds every attribute of the newcomer and — on an attribute the
// newcomer constrains numerically — some lower bound, up to the next
// leaf's first and the leaf's largest upper bound, is at least the
// newcomer's and the smallest upper bound at most the newcomer's. A
// leaf of several attributes is read whenever either attribute test
// passes. A NaN bound of the newcomer compares false and rules nothing
// out, as in ruledOut.
func (n *newcomer) mayHold(d, next *leafSummary) bool {
	if d.flags&dirAlways != 0 {
		return true
	}
	childMay, subMay := d.inter&^n.attrs == 0, n.attrs&^d.union == 0
	if !childMay && !subMay || d.flags&dirOneAttr == 0 {
		return childMay || subMay
	}
	id := d.firstAttr
	s := &n.class[id%32]
	switch {
	case s.kind == slotShared:
		return true
	case s.kind == slotFree || s.id != id:
		return subMay
	case s.kind == slotStr:
		return false
	}
	maxHi, minHi := float64(d.maxHi), float64(d.minHi)
	lastLo := maxHi
	if next != nil && next.flags&dirFirstAlways == 0 && next.firstAttr == id {
		lastLo = min(lastLo, next.firstLo)
	}
	covers := childMay && !(s.lo < d.firstLo) && !(maxHi < s.hi)
	covered := subMay && !(lastLo < s.lo) && !(minHi > s.hi)
	return covers || covered
}

// beyond reports whether leaf d starts on an attribute the newcomer
// constrains numerically, above both of its bounds: an entry there, or
// in a later leaf on that attribute, neither covers the newcomer (its
// lower bound is above the newcomer's) nor is covered by it (its upper
// bound, not below its lower one, is above the newcomer's).
func (n *newcomer) beyond(d *leafSummary) bool {
	s := &n.class[d.firstAttr%32]
	return d.flags&dirFirstAlways == 0 && s.kind == slotNum && s.id == d.firstAttr &&
		d.firstLo > s.lo && d.firstLo > s.hi
}

// dirAt is the arena offset of directory entry j.
func (t *table) dirAt(j int) uint64 {
	return t.dir[j/dirPerPage] + uint64(j%dirPerPage*dirEntrySize)
}

// readDirs appends directory entries [a, b) to dst, a page at a time.
func (e *Engine) readDirs(t *table, a, b int, dst []byte) []byte {
	for a < b {
		end := min(b, (a/dirPerPage+1)*dirPerPage)
		dst = append(dst, e.acc.Read(t.dirAt(a), (end-a)*dirEntrySize)...)
		a = end
	}
	return dst
}

// writeDirs writes the directory entries in src from entry a on, a page
// at a time.
func (e *Engine) writeDirs(t *table, a int, src []byte) {
	for len(src) > 0 {
		n := min(len(src)/dirEntrySize, (a/dirPerPage+1)*dirPerPage-a)
		e.acc.Write(t.dirAt(a), src[:n*dirEntrySize])
		src, a = src[n*dirEntrySize:], a+n
	}
}

// readDir reads directory entry j.
func (e *Engine) readDir(t *table, j int) leafSummary {
	return decodeDir(e.acc.Read(t.dirAt(j), dirEntrySize))
}

// writeDir writes directory entry j.
func (e *Engine) writeDir(t *table, j int, s leafSummary) {
	s.encode(e.dirEnt[:])
	e.writeDirs(t, j, e.dirEnt[:])
}

// shiftDir moves directory entries [j, t.leaves) by delta (±1) and
// records the new count; a directory that grows past its pages takes
// another.
func (e *Engine) shiftDir(t *table, j, delta int) error {
	if t.leaves+delta > len(t.dir)*dirPerPage {
		page, err := e.alloc(simmem.PageSize)
		if err != nil {
			return fmt.Errorf("core: growing a child table's index: %w", err)
		}
		t.dir = append(t.dir, page)
	}
	e.dirBuf = e.readDirs(t, j, t.leaves, e.dirBuf[:0])
	e.writeDirs(t, j+delta, e.dirBuf)
	t.leaves += delta
	return nil
}

// findLeaf returns the last leaf whose first key is below k (strict) or
// at most k, or 0 when there is none; t has a leaf.
func (e *Engine) findLeaf(t *table, k entryKey, strict bool) int {
	j := sort.Search(t.leaves, func(j int) bool {
		d := e.readDir(t, j)
		c := d.first().compare(k)
		return c > 0 || strict && c == 0
	})
	return max(j-1, 0)
}

// readLeaf copies the entries of leaf d into leafBuf.
func (e *Engine) readLeaf(d *leafSummary) []byte {
	e.leafBuf = append(e.leafBuf[:0], e.acc.Read(d.leaf, d.count*entrySize)...)
	return e.leafBuf
}

// indexInsert puts the table entry ent into t's index, after every
// entry whose key is at most its own.
func (e *Engine) indexInsert(t *table, ent []byte) error {
	if t.leaves == 0 {
		return e.addLeaf(t, 0, ent)
	}
	k := keyOfEntry(ent)
	j := e.findLeaf(t, k, false)
	d := e.readDir(t, j)
	ents := e.readLeaf(&d)
	at := len(ents)
	for at > 0 && keyOfEntry(ents[at-entrySize:]).compare(k) > 0 {
		at -= entrySize
	}
	ents = append(ents, ent...)
	copy(ents[at+entrySize:], ents[at:])
	copy(ents[at:], ent)
	e.leafBuf = ents
	if d.count < leafEntries {
		e.acc.Write(d.leaf+uint64(at), ents[at:])
		e.writeDir(t, j, summarize(d.leaf, ents))
		return nil
	}
	// A full leaf splits: its first half stays, the rest moves to a new
	// leaf listed after it.
	half := (leafEntries + 1) / 2 * entrySize
	if at < half {
		e.acc.Write(d.leaf+uint64(at), ents[at:half])
	}
	e.writeDir(t, j, summarize(d.leaf, ents[:half]))
	return e.addLeaf(t, j+1, ents[half:])
}

// addLeaf writes ents into a new leaf record and lists it as directory
// entry j, the entries from j on moving up one.
func (e *Engine) addLeaf(t *table, j int, ents []byte) error {
	leaf, err := e.alloc(leafSize)
	if err != nil {
		return fmt.Errorf("core: allocating an index leaf: %w", err)
	}
	e.acc.Write(leaf, ents)
	if err := e.shiftDir(t, j, 1); err != nil {
		return err
	}
	e.writeDir(t, j, summarize(leaf, ents))
	return nil
}

// indexRemove takes the table entry ent out of t's index: it is in the
// first leaf, from the last whose first key is below its own on, that
// lists its child.
func (e *Engine) indexRemove(t *table, ent []byte) error {
	k, off := keyOfEntry(ent), entryChild(ent)
	for j := e.findLeaf(t, k, true); j < t.leaves; j++ {
		d := e.readDir(t, j)
		if d.first().compare(k) > 0 {
			break
		}
		ents := e.readLeaf(&d)
		at := 0
		for at < len(ents) && entryChild(ents[at:]) != off {
			at += entrySize
		}
		if at == len(ents) {
			continue
		}
		ents = ents[:copy(ents[at:], ents[at+entrySize:])+at]
		if len(ents) == 0 {
			e.release(d.leaf, leafSize)
			return e.shiftDir(t, j+1, -1)
		}
		if at < len(ents) {
			e.acc.Write(d.leaf+uint64(at), ents[at:])
		}
		e.writeDir(t, j, summarize(d.leaf, ents))
		if d.count-1 < leafEntries/4 {
			return e.mergeLeaf(t, j)
		}
		return nil
	}
	return fmt.Errorf("core: child %d is missing from its table's index", off)
}

// mergeLeaf merges leaf j, under a quarter full, into a neighbour — the
// next one, else the one before — when the two hold at most half a
// leaf: the right one's entries are appended to the left one's, and the
// right leaf is released.
func (e *Engine) mergeLeaf(t *table, j int) error {
	if j+1 == t.leaves {
		j-- // the last leaf merges into the one before it
	}
	if j < 0 {
		return nil
	}
	left, right := e.readDir(t, j), e.readDir(t, j+1)
	if left.count+right.count > leafEntries/2 {
		return nil
	}
	ents := append(e.readLeaf(&left), e.acc.Read(right.leaf, right.count*entrySize)...)
	e.leafBuf = ents
	e.acc.Write(left.leaf+uint64(left.count*entrySize), ents[left.count*entrySize:])
	e.writeDir(t, j, summarize(left.leaf, ents))
	e.release(right.leaf, leafSize)
	return e.shiftDir(t, j+2, -1)
}

// loadIndex bulk-loads the index of a table built from its chain: ents,
// its entries oldest link first, sorted by key into leaves three quarters
// full, listed in a directory whose pages are taken first.
func (e *Engine) loadIndex(t *table, ents []byte) error {
	n := len(ents) / entrySize
	order := make([][]byte, n)
	for i := range order {
		at := i * entrySize
		order[i] = ents[at : at+entrySize]
	}
	slices.SortFunc(order, func(a, b []byte) int {
		return keyOfEntry(a).compare(keyOfEntry(b))
	})
	const fill = leafEntries * 3 / 4
	leaves := (n + fill - 1) / fill
	for len(t.dir)*dirPerPage < max(leaves, 1) {
		page, err := e.alloc(simmem.PageSize)
		if err != nil {
			return fmt.Errorf("core: allocating a child table's index: %w", err)
		}
		t.dir = append(t.dir, page)
	}
	leaf := make([]byte, 0, fill*entrySize)
	for j := 0; j < leaves; j++ {
		leaf = leaf[:0]
		for _, c := range order[j*fill : min(n, (j+1)*fill)] {
			leaf = append(leaf, c...)
		}
		if err := e.addLeaf(t, j, leaf); err != nil {
			return err
		}
	}
	return nil
}

// releaseTable hands the leaves and directory pages of a node's table,
// if it has one, to the next allocations of their size, as Unregister
// releases the node.
func (e *Engine) releaseTable(node uint64) {
	t := e.tables[node]
	if t == nil {
		return
	}
	e.dirBuf = e.readDirs(t, 0, t.leaves, e.dirBuf[:0])
	for j := 0; j < t.leaves; j++ {
		e.release(decodeDir(e.dirBuf[j*dirEntrySize:]).leaf, leafSize)
	}
	for _, page := range t.dir {
		e.release(page, simmem.PageSize)
	}
	delete(e.tables, node)
}
