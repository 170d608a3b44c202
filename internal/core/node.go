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
// covers. Identical subscriptions share one node with a list of
// subscribers, realising the footprint reduction the paper attributes
// to containment.
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
// are charged per covering test run. The general shard's roots, which
// rarely cover one another, are not read along their chain: a root table
// in the arena lists them with a summary each (roots.go), and the insert
// reads only the roots whose summary cannot rule out either covering
// direction.
//
// There is one walk, and it carries up to 64 events: a walk-stack entry
// is a node and the bitmask of events still live on the path to it, so
// a publish-batch visits each node once — header, constraint blob and
// subscriber records read and metered once. The chunk is transposed by
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
// event reaches is pruned. Events that carry the same (attribute,
// value) share the walk of that shard. Each event's results are those
// of matching it alone, in the same order; a single event is the batch
// of one, with the simulated counts the per-event walk had.
//
// The arena only grows, but the engine reuses what it unlinks.
// Unregister releases the subscriber record it removes, the node record
// once its last subscriber leaves, and an equality shard's sentinel once
// its forest is empty (the shard is dropped with it). A released record
// goes on a free list keyed by its exact arena size, after PadRecordTo
// and CacheAlign, and the next record of that size takes it before the
// arena grows; a reused record is rewritten whole — header, reserved
// bytes included, then blob; or the subscriber record — before anything
// reads it, and nothing links to a released one. A store that never
// unregisters allocates exactly as it would without the lists, and one
// under churn holds its peak live set (Stats.Bytes) — the root table's
// pages included, since it compacts before it grows.
package core

import (
	"encoding/binary"
	"fmt"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// Nodes use the left-child/right-sibling representation, so appends
// are O(1) pointer writes and no auxiliary child arrays are needed.
//
// Node record layout in the arena:
//
//	offset size field
//	0      8    parent offset (nilOff for shard sentinels)
//	8      8    first child offset (nilOff when leaf)
//	16     8    next sibling offset (nilOff at end of list)
//	24     8    first subscriber record offset (nilOff when none)
//	32     2    constraint blob length in bytes
//	34     1    flags
//	35     13   reserved
//	48     -    constraint blob (pubsub.AppendConstraints format)
//
// Subscriber records form a second linked list per node:
//
//	0      8    next subscriber offset (nilOff at end)
//	8      8    subscription ID
//	16     4    client reference
//	20     4    reserved
const (
	nodeHeaderSize = 48
	subRecordSize  = 24

	offParent   = 0
	offChild    = 8
	offSibling  = 16
	offFirstSub = 24
	offPredLen  = 32
	offFlags    = 34
)

// nilOff marks an absent offset. Offset 0 is valid arena space, so the
// engine reserves the first page at construction; nilOff itself can
// never be allocated.
const nilOff = ^uint64(0)

// nodeHeader is the decoded fixed part of a record.
type nodeHeader struct {
	parent   uint64
	child    uint64
	sibling  uint64
	firstSub uint64
	predLen  uint16
	flags    uint8
}

func decodeHeader(raw []byte) nodeHeader {
	return nodeHeader{
		parent:   binary.LittleEndian.Uint64(raw[offParent:]),
		child:    binary.LittleEndian.Uint64(raw[offChild:]),
		sibling:  binary.LittleEndian.Uint64(raw[offSibling:]),
		firstSub: binary.LittleEndian.Uint64(raw[offFirstSub:]),
		predLen:  binary.LittleEndian.Uint16(raw[offPredLen:]),
		flags:    raw[offFlags],
	}
}

func (h nodeHeader) encode(dst []byte) {
	binary.LittleEndian.PutUint64(dst[offParent:], h.parent)
	binary.LittleEndian.PutUint64(dst[offChild:], h.child)
	binary.LittleEndian.PutUint64(dst[offSibling:], h.sibling)
	binary.LittleEndian.PutUint64(dst[offFirstSub:], h.firstSub)
	binary.LittleEndian.PutUint16(dst[offPredLen:], h.predLen)
	dst[offFlags] = h.flags
}

// readHeader loads and decodes a node header through the accessor.
func (e *Engine) readHeader(off uint64) nodeHeader {
	return decodeHeader(e.acc.Read(off, nodeHeaderSize))
}

// writeHeader stores a header through the accessor.
func (e *Engine) writeHeader(off uint64, h nodeHeader) {
	var buf [nodeHeaderSize]byte
	h.encode(buf[:])
	e.acc.Write(off, buf[:])
}

// setField updates one u64 field of a node header in place, paying for
// a single-word access rather than a whole-header rewrite.
func (e *Engine) setField(nodeOff uint64, field int, value uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], value)
	e.acc.Write(nodeOff+uint64(field), buf[:])
}

// nodeSize is the arena size of a node record whose constraint blob is
// n bytes long: the header and blob, padded to PadRecordTo, rounded by
// CacheAlign.
func (e *Engine) nodeSize(n int) int {
	return e.alignSize(max(nodeHeaderSize+n, e.opts.PadRecordTo))
}

// alloc returns a record of exactly size arena bytes: the one released
// last at that size if there is one, else fresh arena space. The caller
// rewrites the whole record before anything reads it.
func (e *Engine) alloc(size int) (uint64, error) {
	if offs := e.free[size]; len(offs) > 0 {
		e.free[size] = offs[:len(offs)-1]
		return offs[len(offs)-1], nil
	}
	return e.acc.Alloc(size)
}

// release hands a record nothing links to any more to the next alloc of
// its size.
func (e *Engine) release(off uint64, size int) {
	e.free[size] = append(e.free[size], off)
}

// newNode serialises a record (nil constraints for shard sentinels)
// and returns its offset.
func (e *Engine) newNode(parent uint64, cs []pubsub.Constraint) (uint64, error) {
	var blob []byte
	if len(cs) > 0 {
		var err error
		blob, err = pubsub.AppendConstraints(nil, cs)
		if err != nil {
			return 0, fmt.Errorf("core: encoding constraints: %w", err)
		}
	}
	size := e.nodeSize(len(blob))
	if size > simmem.PageSize {
		return 0, fmt.Errorf("core: subscription record of %d bytes exceeds page size", size)
	}
	off, err := e.alloc(size)
	if err != nil {
		return 0, fmt.Errorf("core: allocating node: %w", err)
	}
	h := nodeHeader{
		parent:   parent,
		child:    nilOff,
		sibling:  nilOff,
		firstSub: nilOff,
		predLen:  uint16(len(blob)),
	}
	var hdr [nodeHeaderSize]byte
	h.encode(hdr[:])
	e.acc.Write(off, hdr[:])
	if len(blob) > 0 {
		e.acc.Write(off+nodeHeaderSize, blob)
	}
	e.nodesLive++
	return off, nil
}

// linkChild prepends child to parent's child list.
func (e *Engine) linkChild(parentOff, childOff uint64) {
	ph := e.readHeader(parentOff)
	e.setField(childOff, offSibling, ph.child)
	e.setField(childOff, offParent, parentOff)
	e.setField(parentOff, offChild, childOff)
}

// unlinkChild removes child from parent's child list by scanning the
// sibling chain.
func (e *Engine) unlinkChild(parentOff, childOff uint64) error {
	ph := e.readHeader(parentOff)
	ch := e.readHeader(childOff)
	if ph.child == childOff {
		e.setField(parentOff, offChild, ch.sibling)
		return nil
	}
	prev := ph.child
	for prev != nilOff {
		prevH := e.readHeader(prev)
		if prevH.sibling == childOff {
			e.setField(prev, offSibling, ch.sibling)
			return nil
		}
		prev = prevH.sibling
	}
	return fmt.Errorf("core: node %d is not a child of %d", childOff, parentOff)
}

// attach links a new node for sub under cur and moves the children
// e.moved lists beneath it; under the general sentinel it updates the
// root table to match. The offset it returns is the new node's only
// when the error is nil.
func (e *Engine) attach(cur uint64, sub *pubsub.Subscription) (uint64, error) {
	nodeOff, err := e.newNode(cur, sub.Constraints)
	if err != nil {
		return 0, err
	}
	for _, m := range e.moved {
		if err := e.unlinkChild(cur, m); err != nil {
			return 0, err
		}
		e.linkChild(nodeOff, m)
		if cur == e.general {
			e.dropRoot(m)
		}
	}
	e.linkChild(cur, nodeOff)
	if cur != e.general {
		return nodeOff, nil
	}
	attrs, c, ok := sub.Outline()
	return nodeOff, e.addRoot(nodeOff, attrs, &c, ok)
}

// addSubscriber prepends a subscriber record to the node's list and
// returns the record offset.
func (e *Engine) addSubscriber(nodeOff uint64, subID uint64, clientRef uint32) (uint64, error) {
	recOff, err := e.alloc(e.alignSize(subRecordSize))
	if err != nil {
		return 0, fmt.Errorf("core: allocating subscriber record: %w", err)
	}
	h := e.readHeader(nodeOff)
	var rec [subRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:], h.firstSub)
	binary.LittleEndian.PutUint64(rec[8:], subID)
	binary.LittleEndian.PutUint32(rec[16:], clientRef)
	e.acc.Write(recOff, rec[:])
	e.setField(nodeOff, offFirstSub, recOff)
	return recOff, nil
}

// removeSubscriber unlinks subID's record from the node's list, releases
// it, and reports how many subscribers remain.
func (e *Engine) removeSubscriber(nodeOff uint64, subID uint64) (remaining int, err error) {
	var prev uint64 = nilOff
	cur := e.readHeader(nodeOff).firstSub
	found := false
	for cur != nilOff {
		raw := e.acc.Read(cur, subRecordSize)
		next := binary.LittleEndian.Uint64(raw[0:])
		id := binary.LittleEndian.Uint64(raw[8:])
		if !found && id == subID {
			found = true
			if prev == nilOff {
				e.setField(nodeOff, offFirstSub, next)
			} else {
				e.setField(prev, 0, next)
			}
			e.release(cur, e.alignSize(subRecordSize))
		} else {
			remaining++
			prev = cur
		}
		cur = next
	}
	if !found {
		return 0, fmt.Errorf("core: subscription %d not on node %d", subID, nodeOff)
	}
	return remaining, nil
}
