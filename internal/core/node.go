// Package core implements SCBR's routing engine: a containment-based
// ("covering", after Siena [5]) subscription index with the matching
// algorithm the paper runs inside the enclave.
//
// All subscription state lives in records serialised into a
// simmem.Accessor-backed arena, so the identical engine code runs
// "inside" the simulated enclave (EPC-paged, MEE-charged accessor) and
// "outside" it (plain accessor) — the paper's methodology for
// quantifying enclave overhead. Every byte the engine touches is
// metered.
//
// The index is a forest where every parent covers (⊒) its children.
// Matching walks the forest depth-first and prunes an entire subtree
// as soon as its root fails, which is sound because an event that
// fails a covering subscription fails everything that subscription
// covers. Identical subscriptions share one node, realising the
// footprint reduction the paper attributes to containment: the node's
// header holds its first subscriber, and each later one has a record
// in a list beside it, so a node with one subscriber — nearly every
// node — is one record, read whole by the header read the walk makes
// anyway.
//
// To bound insertion cost on large databases the forest is sharded by
// the subscription's first equality constraint (attribute, value);
// subscriptions without equality constraints live in a general shard.
// Matching consults the shard of each event attribute value plus the
// general shard. Sharding never changes the match result (an event
// matching a sharded subscription necessarily carries the shard's
// attribute value); it only limits which covering edges are
// materialised.
//
// Insertion makes one pass per level of its shard: starting at the
// sentinel, each child of the current node is read once — header and
// constraint blob — and pubsub.CoverEncoded decides on the stored bytes
// both whether the child covers the newcomer and whether the newcomer
// covers the child. A covering child ends the level and is descended
// into (an equal one gains a subscriber instead of a node); when no
// child covers, the children the newcomer covers, collected on the way,
// move beneath the new node attached at that level. Predicate cycles
// are charged per covering test run. The children of a wide node — the
// general shard's roots, which rarely cover one another, or the bands
// under a broad one — are not read along their chain: a child table in
// the arena, an interval index, lists them with a summary each, sorted
// by attribute and lower bound (table.go), and the insert reads only the
// index leaves that may hold a coverer or a covered child, and only the
// children whose summary cannot rule out either covering direction.
//
// There is one walk, and it carries up to 64 events: a walk-stack entry
// is a node and the bitmask of events still live on the path to it, so
// a publish-batch visits each node once — header (with the node's own
// subscriber), constraint blob and any further subscriber records read
// and metered once. The chunk is transposed by
// attribute before the walk (pubsub.Columns), and each visited node's
// blob is evaluated once per visit against every live event: each
// constraint is read once and tested against the column of its
// attribute, charging predicate cycles per event as if each had been
// evaluated alone (pubsub.MatchEncoded). A numeric constraint that
// reaches enough live events (a batch of 32 does; a single event does
// not) is decided from its column's rank instead of one comparison per
// event: the column's values are sorted once per chunk, and a bound
// pair is two binary searches, whichever node asks. Verdicts and
// charged cycles do not depend on which is used. A sibling inherits
// its node's mask, a child the events that passed, and a subtree no
// event reaches is pruned. A chunk of a few events (up to
// tableWalkMax) takes a tabled node's children from its table — the
// index leaves whose span admits some event — instead of its chain: a
// child whose entry rules out every event that passed the node — an
// attribute none carries, or an interval none of their values lies in
// — is passed over with its subtree, header and blob unread, and the
// others' subtrees are walked in chain order. Events
// that carry the same (attribute, value) share the walk of that shard.
// A matched node emits one Record per subscriber, carrying the mask of
// the events that passed it, rather than one result per event: a
// subscription that every event of a chunk matches costs one 24-byte
// record. Filtered to one event, the records are that event's results
// of matching it alone, in the same order (AppendRows expands them into
// per-event rows); a single event is the batch of one, with the
// simulated counts the per-event walk had.
//
// The arena only grows, but the engine reuses what it unlinks.
// Unregister releases the subscriber record it removes — the list's
// tail when the node's own subscriber leaves and the tail's subscriber
// moves into the header — the node record once its last subscriber
// leaves, and an equality shard's sentinel once
// its forest is empty (the shard is dropped with it). A released record
// goes on a free list keyed by its exact arena size, after PadRecordTo
// and CacheAlign, and the next record of that size takes it before the
// arena grows; a reused record is rewritten whole — header, its own
// subscriber and reserved bytes included, then blob; or the subscriber
// record — before anything
// reads it, and nothing links to a released one. A store that never
// unregisters allocates exactly as it would without the lists, and one
// under churn holds its peak live set (Stats.Bytes) — the tables'
// index leaves and directory pages included, since a leaf emptied is
// released and the rest are released with their node.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// Nodes use the left-child/right-sibling representation, so appends
// are O(1) pointer writes and no auxiliary child arrays are needed. A
// node also links back to its chain predecessor, so unlinking it is
// O(1) too.
//
// Node record layout in the arena:
//
//	offset size field
//	0      8    parent offset (nilOff for shard sentinels)
//	8      8    first child offset (nilOff when leaf)
//	16     8    next sibling offset (nilOff at end of list)
//	24     8    first subscriber record offset (nilOff when none)
//	32     2    constraint blob length in bytes
//	34     1    flags: flagOwnSub when bytes 36–39 and 48–55 hold a subscriber
//	35     1    reserved
//	36     4    own subscriber's client reference
//	40     8    previous sibling offset (nilOff for the first child)
//	48     8    own subscriber's subscription ID
//	56     -    constraint blob (pubsub.AppendConstraints format)
//
// A node carries its oldest subscriber in its own header, so a node
// with one subscriber — nearly all of them — is read whole, subscriber
// included, in the header read the walk makes anyway. Every later
// subscriber of an identical subscription has a record in a second
// linked list per node, newest first:
//
//	0      8    next subscriber offset (nilOff at end)
//	8      8    subscription ID
//	16     4    client reference
//	20     4    reserved
//
// The list and then the node's own subscriber is every subscriber,
// newest first. Only shard sentinels have no subscriber of their own.
const (
	nodeHeaderSize = 56
	subRecordSize  = 24

	offParent   = 0
	offChild    = 8
	offSibling  = 16
	offFirstSub = 24
	offPredLen  = 32
	offFlags    = 34
	offOwnRef   = 36
	offPrev     = 40
	offOwnID    = 48

	flagOwnSub = 1
)

// nilOff marks an absent offset. Offset 0 is valid arena space, so the
// engine reserves the first page at construction; nilOff itself can
// never be allocated.
const nilOff = ^uint64(0)

// nodeHeader is the decoded fixed part of a record but the previous
// sibling, which only unlinkChild reads.
type nodeHeader struct {
	parent   uint64
	child    uint64
	sibling  uint64
	firstSub uint64
	predLen  uint16
	flags    uint8
	ownRef   uint32
	ownID    uint64
}

func decodeHeader(raw []byte) nodeHeader {
	raw = raw[:nodeHeaderSize] // one bounds check for every field
	return nodeHeader{
		parent:   binary.LittleEndian.Uint64(raw[offParent:]),
		child:    binary.LittleEndian.Uint64(raw[offChild:]),
		sibling:  binary.LittleEndian.Uint64(raw[offSibling:]),
		firstSub: binary.LittleEndian.Uint64(raw[offFirstSub:]),
		predLen:  binary.LittleEndian.Uint16(raw[offPredLen:]),
		flags:    raw[offFlags],
		ownRef:   binary.LittleEndian.Uint32(raw[offOwnRef:]),
		ownID:    binary.LittleEndian.Uint64(raw[offOwnID:]),
	}
}

// readHeader loads and decodes a node header through the accessor.
func (e *Engine) readHeader(off uint64) nodeHeader {
	return decodeHeader(e.acc.Read(off, nodeHeaderSize))
}

// setField updates one u64 field of a node header in place, paying for
// a single-word access rather than a whole-header rewrite. The word is
// written from the engine's scratch: a local would go to the heap on
// every call, the accessor being an interface.
func (e *Engine) setField(nodeOff uint64, field int, value uint64) {
	binary.LittleEndian.PutUint64(e.fieldBuf[:], value)
	e.acc.Write(nodeOff+uint64(field), e.fieldBuf[:])
}

// nodeSize is the arena size of a node record whose constraint blob is
// n bytes long: the header and blob, padded to PadRecordTo, rounded by
// CacheAlign.
func (e *Engine) nodeSize(n int) int {
	return e.alignSize(max(nodeHeaderSize+n, e.opts.PadRecordTo))
}

// alloc returns a record of exactly size arena bytes: the one released
// last at that size if there is one, else fresh arena space. The caller
// rewrites the whole record before anything reads it. A record must
// start below 4 GiB, since a table entry holds a child's offset, and a
// directory entry a leaf's, in 32 bits: fresh space past that is
// refused here, before anything links to it, so every caller that
// allocates first fails with the forest unchanged.
func (e *Engine) alloc(size int) (uint64, error) {
	if offs := e.free[size]; len(offs) > 0 {
		e.free[size] = offs[:len(offs)-1]
		return offs[len(offs)-1], nil
	}
	off, err := e.acc.Alloc(size)
	if err == nil && off > math.MaxUint32 {
		return 0, errors.New("core: the arena is past 4 GiB, the most a table or directory entry holds")
	}
	return off, err
}

// release hands a record nothing links to any more to the next alloc of
// its size.
func (e *Engine) release(off uint64, size int) {
	e.free[size] = append(e.free[size], off)
}

// newNode serialises a record and returns its offset: a live node
// whose own subscriber is subscription subID of clientRef, or, with nil
// constraints and subID 0, a shard sentinel, which is not counted. The
// header and the constraint blob are encoded into the engine's scratch,
// and the header is written whole.
func (e *Engine) newNode(parent uint64, cs []pubsub.Constraint, subID uint64, clientRef uint32) (uint64, error) {
	var blob []byte
	if len(cs) > 0 {
		var err error
		blob, err = pubsub.AppendConstraints(e.blobBuf[:0], cs)
		if err != nil {
			return 0, fmt.Errorf("core: encoding constraints: %w", err)
		}
		e.blobBuf = blob
	}
	size := e.nodeSize(len(blob))
	if size > simmem.PageSize {
		return 0, fmt.Errorf("core: subscription record of %d bytes exceeds page size", size)
	}
	off, err := e.alloc(size)
	if err != nil {
		return 0, fmt.Errorf("core: allocating node: %w", err)
	}
	hdr := e.hdrBuf[:]
	binary.LittleEndian.PutUint64(hdr[offParent:], parent)
	binary.LittleEndian.PutUint64(hdr[offChild:], nilOff)
	binary.LittleEndian.PutUint64(hdr[offSibling:], nilOff)
	binary.LittleEndian.PutUint64(hdr[offFirstSub:], nilOff)
	binary.LittleEndian.PutUint16(hdr[offPredLen:], uint16(len(blob)))
	var flags uint8
	if subID != 0 {
		flags = flagOwnSub
		e.nodesLive++
	}
	hdr[offFlags] = flags
	binary.LittleEndian.PutUint32(hdr[offOwnRef:], clientRef)
	binary.LittleEndian.PutUint64(hdr[offPrev:], nilOff)
	binary.LittleEndian.PutUint64(hdr[offOwnID:], subID)
	e.acc.Write(off, hdr)
	if len(blob) > 0 {
		e.acc.Write(off+nodeHeaderSize, blob)
	}
	return off, nil
}

// linkChild prepends child to parent's child list.
func (e *Engine) linkChild(parentOff, childOff uint64) {
	first := e.readHeader(parentOff).child
	e.setField(childOff, offSibling, first)
	e.setField(childOff, offParent, parentOff)
	e.setField(childOff, offPrev, nilOff)
	if first != nilOff {
		e.setField(first, offPrev, childOff)
	}
	e.setField(parentOff, offChild, childOff)
}

// unlinkChild removes child from parent's child list through its links
// to its neighbours, and drops its entry from parent's table if parent
// has one.
func (e *Engine) unlinkChild(parentOff, childOff uint64) error {
	raw := e.acc.Read(childOff, nodeHeaderSize)
	ch, prev := decodeHeader(raw), leUint64(raw[offPrev:])
	if ch.parent != parentOff {
		return fmt.Errorf("core: node %d is not a child of %d", childOff, parentOff)
	}
	if prev == nilOff {
		e.setField(parentOff, offChild, ch.sibling)
	} else {
		e.setField(prev, offSibling, ch.sibling)
	}
	if ch.sibling != nilOff {
		e.setField(ch.sibling, offPrev, prev)
	}
	if t := e.tables[parentOff]; t != nil {
		return e.dropEntry(t, childOff, ch)
	}
	return nil
}

// attach links a new node for sub, its own subscriber subscription
// subID of clientRef, under cur, which had e.width
// children if it has no table, and moves the children e.moved lists
// beneath it, keeping the tables: cur's loses the moved children and
// gains the new node; an untabled cur left with tableMin children or
// more, and a new node given that many, build theirs. The offset it returns is the new
// node's only when the error is nil.
func (e *Engine) attach(cur uint64, sub *pubsub.Subscription, subID uint64, clientRef uint32) (uint64, error) {
	nodeOff, err := e.newNode(cur, sub.Constraints, subID, clientRef)
	if err != nil {
		return 0, err
	}
	for _, m := range e.moved {
		if err := e.unlinkChild(cur, m); err != nil {
			return 0, err
		}
		e.linkChild(nodeOff, m)
	}
	e.linkChild(cur, nodeOff)
	if t := e.tables[cur]; t != nil {
		attrs, c, ok := sub.Outline()
		err = e.addEntry(t, cur, nodeOff, attrs, &c, ok)
	} else if e.width-len(e.moved)+1 >= tableMin {
		err = e.buildTable(cur)
	}
	if err == nil && len(e.moved) >= tableMin {
		err = e.buildTable(nodeOff)
	}
	return nodeOff, err
}

// addSubscriber gives a node that already has its own subscriber
// another: a subscriber record, written from the engine's scratch and
// prepended to the node's list, so the list stays newest first.
func (e *Engine) addSubscriber(nodeOff uint64, subID uint64, clientRef uint32) error {
	recOff, err := e.alloc(e.alignSize(subRecordSize))
	if err != nil {
		return fmt.Errorf("core: allocating subscriber record: %w", err)
	}
	rec := e.recBuf[:]
	binary.LittleEndian.PutUint64(rec[0:], e.readHeader(nodeOff).firstSub)
	binary.LittleEndian.PutUint64(rec[8:], subID)
	binary.LittleEndian.PutUint32(rec[16:], clientRef)
	e.acc.Write(recOff, rec)
	e.setField(nodeOff, offFirstSub, recOff)
	return nil
}

// removeSubscriber removes subID from the node and reports whether
// the node has a subscriber left. A listed subscriber's record is
// unlinked and released. When the node's own subscriber leaves, the
// list's tail — its oldest entry, the oldest subscriber left — moves
// into the header and that record is unlinked and released instead, so
// the list and then the own subscriber stay every subscriber newest
// first; a node left with none keeps its header as it was, for
// Unregister to splice out.
func (e *Engine) removeSubscriber(nodeOff uint64, subID uint64) (left bool, err error) {
	h := e.readHeader(nodeOff)
	own := h.flags&flagOwnSub != 0 && h.ownID == subID
	if own && h.firstSub == nilOff {
		return false, nil
	}
	prev, cur := nilOff, h.firstSub
	for cur != nilOff {
		raw := e.acc.Read(cur, subRecordSize)
		next := binary.LittleEndian.Uint64(raw[0:])
		id := binary.LittleEndian.Uint64(raw[8:])
		if own && next == nilOff {
			// The tail takes the own subscriber's place.
			binary.LittleEndian.PutUint32(e.fieldBuf[:4], binary.LittleEndian.Uint32(raw[16:]))
			e.acc.Write(nodeOff+offOwnRef, e.fieldBuf[:4])
			e.setField(nodeOff, offOwnID, id)
		} else if own || id != subID {
			prev, cur = cur, next
			continue
		}
		if prev == nilOff {
			e.setField(nodeOff, offFirstSub, next)
		} else {
			e.setField(prev, 0, next)
		}
		e.release(cur, e.alignSize(subRecordSize))
		return true, nil
	}
	return false, fmt.Errorf("core: subscription %d not on node %d", subID, nodeOff)
}
