package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// Options configure an Engine.
type Options struct {
	// PadRecordTo pads every node record to at least this many bytes.
	// The paper's engine stores ≈437 bytes per subscription (10 000
	// subscriptions ≈ 4.37 MB); experiments set this so the memory
	// footprint matches the paper's x-axes. Zero keeps records at
	// their natural size.
	PadRecordTo int
	// DisableSharding keeps every subscription in a single containment
	// forest, as the paper's engine does: insertion and matching scan
	// the forest roots instead of jumping through the equality-value
	// index. Used by the sharding ablation benchmark; much slower on
	// large equality-heavy databases.
	DisableSharding bool
	// CacheAlign rounds every record allocation (node and subscriber)
	// up to a multiple of the 64-byte cache-line size, so no record
	// header straddles a line — the paper's §6 proposal of
	// "appropriately fitting [the containment trees] into cache
	// lines". It trades footprint (more lines allocated) for locality
	// (fewer lines touched per record); the cache-alignment ablation
	// quantifies the balance.
	CacheAlign bool
}

// cacheLineSize is the line size of the modelled LLC (Skylake: 64 B).
const cacheLineSize = 64

// alignSize applies the CacheAlign rounding rule. Keeping every
// allocation a multiple of the line size keeps every record offset
// line-aligned (the arena starts records at page boundaries, which
// are line-aligned).
func (e *Engine) alignSize(n int) int {
	if !e.opts.CacheAlign {
		return n
	}
	return (n + cacheLineSize - 1) &^ (cacheLineSize - 1)
}

// ErrUnknownSubscription is returned by Unregister for IDs the engine
// does not hold.
var ErrUnknownSubscription = errors.New("core: unknown subscription")

// MatchResult identifies one matching subscription.
type MatchResult struct {
	SubID     uint64
	ClientRef uint32
}

// Stats summarises the engine state.
type Stats struct {
	// Subscriptions is the number of live registered subscriptions.
	Subscriptions int
	// Nodes is the number of live index nodes (excluding sentinels);
	// identical subscriptions share a node.
	Nodes int
	// Shards is the number of containment forests.
	Shards int
	// Bytes is the arena footprint: the peak live set, since the
	// records Unregister unlinks are reused before the arena grows (the
	// arena itself is a bump allocator, as is typical for enclave heaps).
	Bytes uint64
}

// shardKey identifies one containment forest: the attribute and value
// of the subscription's first equality constraint.
type shardKey struct {
	id  pubsub.AttrID
	str bool
	f   uint64 // float bits for numeric equality
	s   string // value for string equality
}

// Engine is the SCBR matching engine. It is safe for concurrent use,
// but serialises all operations internally: the paper's engine is a
// single-threaded filter (parallelism comes from partitioning, see
// internal/streamhub).
type Engine struct {
	mu     sync.Mutex
	acc    simmem.Accessor
	schema *pubsub.Schema
	opts   Options
	// predCycles is the cost model's PredicateCycles, read once: the
	// match loop charges it on every node it visits.
	predCycles uint64

	general   uint64              // sentinel of the no-equality shard
	shards    map[shardKey]uint64 // sentinel per equality shard
	subIndex  map[uint64]uint64   // subscription ID → node offset
	nextSubID uint64
	nodesLive int // live non-sentinel nodes

	// Scratch buffers (guarded by mu).
	stack []walkEntry
	moved []uint64
	width int // children of the node scanChildren last read, for attach
	// cols holds the chunk being matched, transposed by attribute.
	cols pubsub.Columns

	// free holds the records Unregister released, by arena size; alloc
	// takes from it before the arena grows.
	free    map[int][]uint64
	shardOf map[uint64]shardKey // equality shard per sentinel

	// The child tables (table.go), by the offset of their node — the
	// general sentinel's always.
	tables map[uint64]*table

	// Scratch for the header word setField writes, and for the tables'
	// indexes: an entry being written or looked up, directory entries
	// and a leaf's entries being rewritten, the leaves an insert reads,
	// and the children an insert or a walk takes from them, with their
	// sort keys and in chain order.
	fieldBuf        [8]byte
	entBuf          [entrySize]byte
	dirBuf, leafBuf []byte
	leafReads       []leafSummary
	cands, sorted   []tableCand
	candKeys        []uint64

	// Scratch for a node header newNode writes and a subscriber record
	// addSubscriber writes.
	hdrBuf [nodeHeaderSize]byte
	recBuf [subRecordSize]byte
}

// NewEngine builds an engine over the given accessor. The first arena
// page is reserved so that offset 0 never denotes a record.
func NewEngine(acc simmem.Accessor, schema *pubsub.Schema, opts Options) (*Engine, error) {
	if _, err := acc.Alloc(simmem.PageSize); err != nil {
		return nil, fmt.Errorf("core: reserving guard page: %w", err)
	}
	// The general sentinel's index's first directory page follows it:
	// taken later, a page-sized allocation would skip the rest of the
	// arena's current page.
	dir, err := acc.Alloc(simmem.PageSize)
	if err != nil {
		return nil, fmt.Errorf("core: allocating the root table: %w", err)
	}
	e := &Engine{
		acc:        acc,
		schema:     schema,
		opts:       opts,
		predCycles: acc.Meter().Cost.PredicateCycles,
		shards:     make(map[shardKey]uint64),
		shardOf:    make(map[uint64]shardKey),
		subIndex:   make(map[uint64]uint64),
		free:       make(map[int][]uint64),
		// Slices match in parallel, each pushing onto its engine's walk
		// stack at every node. Sized to whole cache lines up front, two
		// engines' stacks are never small neighbours in one line that
		// bounces between their cores (measured: 2–3× on a two-slice
		// walk).
		stack:  make([]walkEntry, 0, 64),
		tables: make(map[uint64]*table),
	}
	general, err := e.newNode(nilOff, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	e.general = general
	e.tables[general] = &table{at: make(map[uint64]int), dir: []uint64{dir}}
	return e, nil
}

// Schema returns the engine's attribute intern table.
func (e *Engine) Schema() *pubsub.Schema { return e.schema }

// Accessor returns the engine's memory accessor (experiments read its
// meter).
func (e *Engine) Accessor() simmem.Accessor { return e.acc }

// Register normalises spec and inserts it for clientRef, returning the
// subscription ID used for Unregister.
func (e *Engine) Register(spec pubsub.SubscriptionSpec, clientRef uint32) (uint64, error) {
	sub, err := pubsub.Normalize(e.schema, spec)
	if err != nil {
		return 0, err
	}
	return e.RegisterNormalized(sub, clientRef)
}

// RegisterNormalized inserts an already-normalised subscription.
func (e *Engine) RegisterNormalized(sub *pubsub.Subscription, clientRef uint32) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextSubID++
	return e.registerLocked(sub, clientRef, e.nextSubID)
}

// RegisterAssigned inserts a subscription under a caller-chosen ID —
// the state-restore path, which must reproduce the IDs clients already
// hold. The ID must be unused.
func (e *Engine) RegisterAssigned(sub *pubsub.Subscription, clientRef uint32, subID uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if subID == 0 {
		return errors.New("core: subscription ID must be non-zero")
	}
	if _, exists := e.subIndex[subID]; exists {
		return fmt.Errorf("core: subscription ID %d already registered", subID)
	}
	if subID > e.nextSubID {
		e.nextSubID = subID
	}
	_, err := e.registerLocked(sub, clientRef, subID)
	return err
}

func (e *Engine) registerLocked(sub *pubsub.Subscription, clientRef uint32, id uint64) (uint64, error) {
	sentinel, err := e.shardFor(sub)
	if err != nil {
		return 0, err
	}
	nodeOff, err := e.insert(sentinel, sub, id, clientRef)
	if err != nil {
		return 0, err
	}
	e.subIndex[id] = nodeOff
	return id, nil
}

// shardFor returns (creating on demand) the sentinel of the shard the
// subscription belongs to.
func (e *Engine) shardFor(sub *pubsub.Subscription) (uint64, error) {
	if e.opts.DisableSharding {
		return e.general, nil
	}
	id, v, ok := sub.EqualityAttr()
	if !ok {
		return e.general, nil
	}
	key := keyOf(id, &v)
	if off, ok := e.shards[key]; ok {
		return off, nil
	}
	off, err := e.newNode(nilOff, nil, 0, 0)
	if err != nil {
		return 0, err
	}
	e.shardOf[off] = key
	e.shards[key] = off
	return off, nil
}

// insert descends from the sentinel to the deepest covering node in
// one pass per level: each child of the current node is read once and
// both covering directions are decided on its stored bytes. A child
// that covers the newcomer ends the level and is descended into (an
// equal one is shared: subscription subID of clientRef joins its
// subscriber list); when none does, the children the newcomer
// covers have been collected on the way, and they move beneath the new
// node attached there, with the subscriber in its header — keeping
// containment paths deep, the property
// the paper's workload discussion relies on. A tabled node's children
// are scanned through its table (scanTable), every other level along
// its child chain. It returns the node that holds the subscriber.
func (e *Engine) insert(sentinel uint64, sub *pubsub.Subscription, subID uint64, clientRef uint32) (uint64, error) {
	cur := sentinel
	for {
		var next uint64
		var equal bool
		var err error
		if t := e.tables[cur]; t != nil {
			next, equal, err = e.scanTable(t, sub)
		} else {
			next, equal, err = e.scanChildren(cur, sub)
		}
		if err != nil {
			return 0, err
		}
		if equal {
			// Identical constraints: share the node.
			return next, e.addSubscriber(next, subID, clientRef)
		}
		if next == nilOff {
			return e.attach(cur, sub, subID, clientRef)
		}
		cur = next
	}
}

// scanChildren is one level of insert along cur's child chain: it
// returns the first child that covers sub (equal when sub covers it
// too), or nilOff with e.moved holding the children sub covers and
// e.width the number of cur's children.
func (e *Engine) scanChildren(cur uint64, sub *pubsub.Subscription) (next uint64, equal bool, err error) {
	e.moved = e.moved[:0]
	e.width = 0
	for child := e.readHeader(cur).child; child != nilOff; e.width++ {
		ch, childCovers, subCovers, err := e.coverTest(child, sub)
		if err != nil || childCovers {
			return child, subCovers, err
		}
		if subCovers {
			e.moved = append(e.moved, child)
		}
		child = ch.sibling
	}
	return nilOff, false, nil
}

// coverTest reads the node at off and decides both covering directions
// between it and sub on its stored bytes, charging predicate cycles per
// covering test run: node ⊒ sub always, sub ⊒ node where the first
// fails. A node stored without constraints covers everything.
func (e *Engine) coverTest(off uint64, sub *pubsub.Subscription) (h nodeHeader, nodeCovers, subCovers bool, err error) {
	h = e.readHeader(off)
	nodeCovers, subCovers = true, len(sub.Constraints) == 0
	n := 0
	if h.predLen != 0 {
		nodeCovers, subCovers, n, err = pubsub.CoverEncoded(e.acc.Read(off+nodeHeaderSize, int(h.predLen)), sub)
		if err != nil {
			return h, false, false, fmt.Errorf("core: corrupt node at %d: %w", off, err)
		}
	}
	e.chargeCompare(n)
	if !nodeCovers {
		e.chargeCompare(len(sub.Constraints))
	}
	return h, nodeCovers, subCovers, nil
}

// Unregister removes a subscription. When its node has no subscribers
// left, the node is spliced out of the forest (children re-attach to
// the grandparent, which still covers them transitively), and an
// equality shard left with no node is dropped. Every record unlinked
// here is released for reuse, a spliced node's index leaves and
// directory pages included; a grandparent with no table that takes
// tableMin children or more builds one.
func (e *Engine) Unregister(subID uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	nodeOff, ok := e.subIndex[subID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSubscription, subID)
	}
	delete(e.subIndex, subID)
	left, err := e.removeSubscriber(nodeOff, subID)
	if err != nil || left {
		return err
	}
	// Splice the node out.
	h := e.readHeader(nodeOff)
	if err := e.unlinkChild(h.parent, nodeOff); err != nil {
		return err
	}
	t := e.tables[h.parent]
	relinked := 0
	for child := h.child; child != nilOff; relinked++ {
		ch := e.readHeader(child)
		e.linkChild(h.parent, child)
		if t != nil {
			if err := e.addEntryFromBlob(t, child, ch); err != nil {
				return err
			}
		}
		child = ch.sibling
	}
	if t == nil && relinked >= tableMin {
		if err := e.buildTable(h.parent); err != nil {
			return err
		}
	}
	e.nodesLive--
	e.releaseTable(nodeOff)
	e.release(nodeOff, e.nodeSize(int(h.predLen)))
	// A root removed with no children may have been its equality
	// shard's last node: drop the shard and release its sentinel.
	if key, ok := e.shardOf[h.parent]; ok && h.child == nilOff && e.readHeader(h.parent).child == nilOff {
		delete(e.shards, key)
		delete(e.shardOf, h.parent)
		e.releaseTable(h.parent)
		e.release(h.parent, e.nodeSize(0))
	}
	return nil
}

// Match returns every subscription the event satisfies. It consults
// the shard of each event attribute value plus the general shard and
// walks each containment forest with subtree pruning.
func (e *Engine) Match(ev *pubsub.Event) ([]MatchResult, error) {
	return e.MatchAppend(ev, nil)
}

// MatchAppend is Match appending into out to avoid per-call
// allocations on the hot path: the batch walk at n = 1.
func (e *Engine) MatchAppend(ev *pubsub.Event, out []MatchResult) ([]MatchResult, error) {
	evs := [1]*pubsub.Event{ev}
	outs := [1][]MatchResult{out}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.matchChunk(evs[:], outs[:]); err != nil {
		return nil, err
	}
	return outs[0], nil
}

// MatchAppendBatch matches a batch of events under a single lock
// acquisition and one pass over the store per chunk of walkChunk
// events — the engine-side half of the batch-first publication path,
// where one enclave crossing covers a whole publish-batch. Every
// forest is walked once per chunk with the set of events still live on
// the path: a node's header, constraint blob and subscriber records
// are read (and their memory cycles charged) once per visit, however
// many events reach it, while predicate cycles are charged per event
// evaluated. evs and out are parallel, and out[i] receives exactly the
// MatchAppend(evs[i]) results in the same order; nil events are
// skipped (a dropped item keeps its slot so callers can merge by
// index), and an event that fails mid-walk contributes nothing to its
// slot, exactly as the per-item MatchAppend would have returned
// nothing — the other events of its chunk are not affected.
func (e *Engine) MatchAppendBatch(evs []*pubsub.Event, out [][]MatchResult) error {
	if len(out) < len(evs) {
		return fmt.Errorf("core: batch result slots %d < events %d", len(out), len(evs))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for lo := 0; lo < len(evs); lo += walkChunk {
		hi := min(lo+walkChunk, len(evs))
		// A failed event's slot is already back at its base.
		_ = e.matchChunk(evs[lo:hi], out[lo:hi])
	}
	return nil
}

// walkChunk is the number of events one forest walk carries: one bit
// of a mask word each.
const walkChunk = pubsub.ColumnEvents

// walkEntry is one pending visit of the walk: a node, the events of
// the chunk that are live on the path to it (bit i = evs[i]), and
// whether its siblings are left to others — set for a child taken from
// a table, whose siblings are table entries of their own.
type walkEntry struct {
	off   uint64
	live  uint64
	alone bool
}

// keyOf names the equality shard of one (attribute, value).
func keyOf(id pubsub.AttrID, v *pubsub.Value) shardKey {
	if v.Kind == pubsub.KindString {
		return shardKey{id: id, str: true, s: v.S}
	}
	return shardKey{id: id, f: math.Float64bits(v.AsFloat())}
}

// matchChunk matches up to walkChunk events (nil = skipped) in one
// pass: it transposes them by attribute into the engine's columns, then
// walks the general shard with every event live, then the equality
// shards attribute position by attribute position, the events that
// carry the same (attribute, value) at a position sharing one walk.
// Each event therefore sees the general shard first and its own shards
// in its attribute order, as if it had been matched alone. When at most
// tableWalkMax events are live, every walk takes tabled nodes' children
// from their tables. An event
// that hits a corrupt node leaves every later walk and has its slot
// truncated to where it started; the first such error is returned.
func (e *Engine) matchChunk(evs []*pubsub.Event, out [][]MatchResult) error {
	var (
		base     [walkChunk]int
		sentinel [walkChunk]uint64
		live     uint64
		maxAttrs int
	)
	for i, ev := range evs {
		if ev == nil {
			continue
		}
		live |= uint64(1) << i
		base[i] = len(out[i])
		maxAttrs = max(maxAttrs, len(ev.Attrs))
	}
	if live == 0 {
		return nil
	}
	e.cols.Load(evs)
	var tables map[uint64]*table // nil for a large chunk: no table is read
	if bits.OnesCount64(live) <= tableWalkMax {
		tables = e.tables
	}
	failed, firstErr := e.walkForest(e.general, live, tables, out)
	live &^= failed
	for pos := 0; pos < maxAttrs && live != 0; pos++ {
		var pending uint64
		for m := live; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if pos >= len(evs[i].Attrs) {
				continue
			}
			attr := &evs[i].Attrs[pos]
			if s, ok := e.shards[keyOf(attr.ID, &attr.Value)]; ok {
				sentinel[i] = s
				pending |= uint64(1) << i
			}
		}
		for pending != 0 {
			s := sentinel[bits.TrailingZeros64(pending)]
			var group uint64
			for m := pending; m != 0; m &= m - 1 {
				if i := bits.TrailingZeros64(m); sentinel[i] == s {
					group |= uint64(1) << i
				}
			}
			pending &^= group
			f, err := e.walkForest(s, group, tables, out)
			if firstErr == nil {
				firstErr = err
			}
			failed |= f
			live &^= f
		}
	}
	for m := failed; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		out[i] = out[i][:base[i]]
	}
	return firstErr
}

// walkForest walks the forest under a shard's sentinel depth-first for
// the events in mask, visiting each node at most once: its constraint
// blob is evaluated once per visit against every live event
// (Columns.Match over the chunk matchChunk loaded), a sibling inherits
// the mask its node was entered with, a child the events that passed
// the node, and a subtree no event reaches is pruned. A node tabled in
// tables — the engine's for a chunk of at most tableWalkMax events, nil
// for a larger one — has its children, the sentinel's included (its
// header then unread), taken from its table's index, narrowed to the
// events each summary admits (pushTable); any other node's children are
// followed along its chain. It appends each event's matches to its
// slot in the order a walk for that event alone would, and returns the
// events that hit a corrupt node (with the first error); those stop
// being evaluated from that node on. The walk stack is a local for the
// duration, and only its backing array goes back into the engine, so
// the loop stores nothing into the Engine struct.
func (e *Engine) walkForest(sentinel, mask uint64, tables map[uint64]*table, out [][]MatchResult) (failed uint64, err error) {
	stack := e.stack[:0]
	if t := tables[sentinel]; t != nil {
		stack = e.pushTable(stack, t, mask)
	} else if root := e.readHeader(sentinel).child; root != nilOff {
		stack = append(stack, walkEntry{off: root, live: mask})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		live := top.live &^ failed
		if live == 0 {
			continue
		}
		nh := e.readHeader(top.off)
		if nh.sibling != nilOff && !top.alone {
			stack = append(stack, walkEntry{off: nh.sibling, live: live})
		}
		// A node stored without constraints has no blob and matches
		// every event with nothing evaluated.
		pass := live
		if nh.predLen != 0 {
			blob := e.acc.Read(top.off+nodeHeaderSize, int(nh.predLen))
			p, f, evaluated, merr := e.cols.Match(blob, live)
			pass = p
			if merr != nil {
				failed |= f
				if err == nil {
					err = fmt.Errorf("core: corrupt node at %d: %w", top.off, merr)
				}
			}
			e.acc.Charge(uint64(evaluated) * e.predCycles)
		}
		if pass == 0 {
			continue // prune: nothing below can match
		}
		// The node's later subscribers, newest first, each read from
		// its record, then its own, read with the header.
		own := nh.flags&flagOwnSub != 0
		for sub := nh.firstSub; sub != nilOff || own; {
			res := MatchResult{SubID: nh.ownID, ClientRef: nh.ownRef}
			if sub != nilOff {
				raw := e.acc.Read(sub, subRecordSize)
				res = MatchResult{SubID: leUint64(raw[8:]), ClientRef: leUint32(raw[16:])}
				sub = leUint64(raw[0:])
			} else {
				own = false
			}
			for m := pass; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				out[i] = append(out[i], res)
			}
		}
		if nh.child == nilOff {
			continue
		}
		if t := tables[top.off]; t != nil {
			stack = e.pushTable(stack, t, pass)
		} else {
			stack = append(stack, walkEntry{off: nh.child, live: pass})
		}
	}
	e.stack = stack
	return failed, err
}

// chargeCompare charges the CPU cost of one covering test over n
// constraints.
func (e *Engine) chargeCompare(n int) {
	if n == 0 {
		n = 1
	}
	e.acc.Charge(uint64(n) * e.predCycles)
}

// Stats returns engine statistics.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Subscriptions: len(e.subIndex),
		Nodes:         e.nodesLive,
		Shards:        len(e.shards) + 1,
		Bytes:         e.acc.Size(),
	}
}

// ForestShape describes the structure of the index: per-shard root
// counts and the depth histogram, used to validate the paper's
// explanation of workload behaviour (deep trees for equality-heavy
// workloads, many shallow roots for wide-attribute ones).
type ForestShape struct {
	Roots    int
	MaxDepth int
	// NodesAtDepth[d] counts nodes at depth d (roots are depth 1).
	NodesAtDepth []int
}

// Shape walks the whole index (metered) and returns its shape.
func (e *Engine) Shape() ForestShape {
	e.mu.Lock()
	defer e.mu.Unlock()
	var shape ForestShape
	sentinels := make([]uint64, 0, len(e.shards)+1)
	sentinels = append(sentinels, e.general)
	for _, s := range e.shards {
		sentinels = append(sentinels, s)
	}
	type item struct {
		off   uint64
		depth int
	}
	var stack []item
	for _, s := range sentinels {
		h := e.readHeader(s)
		child := h.child
		for child != nilOff {
			shape.Roots++
			stack = append(stack, item{off: child, depth: 1})
			child = e.readHeader(child).sibling
		}
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for len(shape.NodesAtDepth) <= it.depth {
			shape.NodesAtDepth = append(shape.NodesAtDepth, 0)
		}
		shape.NodesAtDepth[it.depth]++
		if it.depth > shape.MaxDepth {
			shape.MaxDepth = it.depth
		}
		h := e.readHeader(it.off)
		child := h.child
		for child != nilOff {
			stack = append(stack, item{off: child, depth: it.depth + 1})
			child = e.readHeader(child).sibling
		}
	}
	return shape
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func leUint32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
