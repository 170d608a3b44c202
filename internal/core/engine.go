package core

import (
	"errors"
	"fmt"
	"math"
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
	// Bytes is the arena footprint, including garbage from unlinked
	// records (the arena is a bump allocator, as is typical for
	// enclave heaps; Fig. 8 grows monotonically anyway).
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
	csNode []pubsub.Constraint
	stack  []uint64
	moved  []uint64
}

// NewEngine builds an engine over the given accessor. The first arena
// page is reserved so that offset 0 never denotes a record.
func NewEngine(acc simmem.Accessor, schema *pubsub.Schema, opts Options) (*Engine, error) {
	e := &Engine{
		acc:        acc,
		schema:     schema,
		opts:       opts,
		predCycles: acc.Meter().Cost.PredicateCycles,
		shards:     make(map[shardKey]uint64),
		subIndex:   make(map[uint64]uint64),
		// Slices match in parallel, each pushing onto its engine's walk
		// stack at every node. Sized to whole cache lines up front, two
		// engines' stacks are never small neighbours in one line that
		// bounces between their cores (measured: 2–3× on a two-slice
		// walk).
		stack: make([]uint64, 0, 64),
	}
	if _, err := acc.Alloc(simmem.PageSize); err != nil {
		return nil, fmt.Errorf("core: reserving guard page: %w", err)
	}
	general, err := e.newNode(nilOff, nil)
	if err != nil {
		return nil, err
	}
	e.general = general
	e.nodesLive-- // sentinels are not counted
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
	nodeOff, err := e.insert(sentinel, sub)
	if err != nil {
		return 0, err
	}
	if _, err := e.addSubscriber(nodeOff, id, clientRef); err != nil {
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
	key := shardKey{id: id}
	if v.Kind == pubsub.KindString {
		key.str = true
		key.s = v.S
	} else {
		key.f = math.Float64bits(v.AsFloat())
	}
	if off, ok := e.shards[key]; ok {
		return off, nil
	}
	off, err := e.newNode(nilOff, nil)
	if err != nil {
		return 0, err
	}
	e.nodesLive-- // sentinel
	e.shards[key] = off
	return off, nil
}

// insert descends from the sentinel to the deepest covering node,
// dedups onto an equal node when one is found, and otherwise creates a
// new node there, re-parenting any now-covered siblings beneath it.
func (e *Engine) insert(sentinel uint64, sub *pubsub.Subscription) (uint64, error) {
	cur := sentinel
	for {
		curH := e.readHeader(cur)
		var coverer uint64 = nilOff
		child := curH.child
		for child != nilOff {
			ch := e.readHeader(child)
			cs, err := e.constraintsOf(child, ch, &e.csNode)
			if err != nil {
				return 0, err
			}
			childSub := pubsub.Subscription{Constraints: cs}
			e.chargeCompare(len(cs))
			if childSub.Covers(sub) {
				if sub.Covers(&childSub) {
					// Identical constraints: share the node.
					return child, nil
				}
				coverer = child
				break
			}
			child = ch.sibling
		}
		if coverer == nilOff {
			break
		}
		cur = coverer
	}

	// Attach a new node under cur.
	nodeOff, err := e.newNode(cur, sub.Constraints)
	if err != nil {
		return 0, err
	}
	// Collect cur's children that the new subscription covers; they
	// move beneath it to keep containment paths deep (the property the
	// paper's workload discussion relies on).
	e.moved = e.moved[:0]
	curH := e.readHeader(cur)
	child := curH.child
	for child != nilOff {
		ch := e.readHeader(child)
		cs, err := e.constraintsOf(child, ch, &e.csNode)
		if err != nil {
			return 0, err
		}
		e.chargeCompare(len(sub.Constraints))
		if sub.Covers(&pubsub.Subscription{Constraints: cs}) {
			e.moved = append(e.moved, child)
		}
		child = ch.sibling
	}
	for _, m := range e.moved {
		if err := e.unlinkChild(cur, m); err != nil {
			return 0, err
		}
		e.linkChild(nodeOff, m)
	}
	e.linkChild(cur, nodeOff)
	return nodeOff, nil
}

// Unregister removes a subscription. When its node has no subscribers
// left, the node is spliced out of the forest (children re-attach to
// the grandparent, which still covers them transitively).
func (e *Engine) Unregister(subID uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	nodeOff, ok := e.subIndex[subID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSubscription, subID)
	}
	delete(e.subIndex, subID)
	remaining, err := e.removeSubscriber(nodeOff, subID)
	if err != nil {
		return err
	}
	if remaining > 0 {
		return nil
	}
	// Splice the node out.
	h := e.readHeader(nodeOff)
	if err := e.unlinkChild(h.parent, nodeOff); err != nil {
		return err
	}
	child := h.child
	for child != nilOff {
		next := e.readHeader(child).sibling
		e.linkChild(h.parent, child)
		child = next
	}
	e.nodesLive--
	return nil
}

// Match returns every subscription the event satisfies. It consults
// the shard of each event attribute value plus the general shard and
// walks each containment forest with subtree pruning.
func (e *Engine) Match(ev *pubsub.Event) ([]MatchResult, error) {
	return e.MatchAppend(ev, nil)
}

// MatchAppend is Match appending into out to avoid per-call
// allocations on the hot path.
func (e *Engine) MatchAppend(ev *pubsub.Event, out []MatchResult) ([]MatchResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.matchAppendLocked(ev, out)
}

// MatchAppendBatch matches a batch of events under a single lock
// acquisition — the engine-side half of the batch-first publication
// path, where one enclave crossing covers a whole publish-batch. evs
// and out are parallel; nil events are skipped (a dropped item keeps
// its slot so callers can merge by index), and an event that fails
// mid-walk contributes nothing to its slot, exactly as the per-item
// MatchAppend would have returned nothing.
func (e *Engine) MatchAppendBatch(evs []*pubsub.Event, out [][]MatchResult) error {
	if len(out) < len(evs) {
		return fmt.Errorf("core: batch result slots %d < events %d", len(out), len(evs))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, ev := range evs {
		if ev == nil {
			continue
		}
		base := len(out[i])
		res, err := e.matchAppendLocked(ev, out[i])
		if err != nil {
			out[i] = out[i][:base]
			continue
		}
		out[i] = res
	}
	return nil
}

func (e *Engine) matchAppendLocked(ev *pubsub.Event, out []MatchResult) ([]MatchResult, error) {

	out, err := e.matchForest(e.general, ev, out)
	if err != nil {
		return nil, err
	}
	var key shardKey
	for _, attr := range ev.Attrs {
		key = shardKey{id: attr.ID}
		if attr.Value.Kind == pubsub.KindString {
			key.str = true
			key.s = attr.Value.S
			key.f = 0
		} else {
			key.str = false
			key.s = ""
			key.f = math.Float64bits(attr.Value.AsFloat())
		}
		sentinel, ok := e.shards[key]
		if !ok {
			continue
		}
		if out, err = e.matchForest(sentinel, ev, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// matchForest walks one shard's forest. The walk stack is a local for
// the duration, and only its backing array goes back into the engine,
// so the loop stores nothing into the Engine struct.
func (e *Engine) matchForest(sentinel uint64, ev *pubsub.Event, out []MatchResult) ([]MatchResult, error) {
	h := e.readHeader(sentinel)
	if h.child == nilOff {
		return out, nil
	}
	stack := append(e.stack[:0], h.child)
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nh := e.readHeader(off)
		if nh.sibling != nilOff {
			stack = append(stack, nh.sibling)
		}
		// A node stored without constraints has no blob and matches
		// every event with nothing evaluated.
		matched, evaluated := true, 0
		if nh.predLen != 0 {
			var err error
			matched, evaluated, err = pubsub.MatchEncoded(ev, e.acc.Read(off+nodeHeaderSize, int(nh.predLen)))
			if err != nil {
				return nil, fmt.Errorf("core: corrupt node at %d: %w", off, err)
			}
		}
		e.acc.Charge(uint64(evaluated) * e.predCycles)
		if !matched {
			continue // prune: nothing below can match
		}
		sub := nh.firstSub
		for sub != nilOff {
			raw := e.acc.Read(sub, subRecordSize)
			out = append(out, MatchResult{
				SubID:     leUint64(raw[8:]),
				ClientRef: leUint32(raw[16:]),
			})
			sub = leUint64(raw[0:])
		}
		if nh.child != nilOff {
			stack = append(stack, nh.child)
		}
	}
	e.stack = stack
	return out, nil
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
