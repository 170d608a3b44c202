// Package streamhub implements the scaling architecture §3.4 of the
// paper advocates instead of broker overlays: following StreamHub
// (Barazzutti et al., DEBS'13), the subscription database is
// partitioned across independent matcher slices behind a single
// ingress. A publication is matched by every slice and the result sets
// are merged; the publisher↔matcher key management of SCBR "could be
// simply replicated" per slice, which is what the router does by
// launching one enclave per slice.
//
// Partitioning also attacks the paper's EPC-exhaustion problem
// (Fig. 8): each slice only holds 1/k of the database, so a database
// that would page on one enclave fits k enclaves' EPCs.
//
// The hub owns ID packing, placement and the ID → slice ownership
// record; storage, matching and what a slice stores belong to each
// partition's scheme.Slice, and the caller owns the fan-out, the
// enclave transitions and the partition locks (the broker's resident
// per-slice workers are already inside the slice's enclave when they
// consult the hub). The hub reads no slice's statistics: a slice is
// read only under its partition lock, which the caller holds.
//
// Placement is by hash and elastic: registration keys hash onto fixed
// virtual shards (ShardForKey; the shard is the top byte of every hub
// subscription ID), and a movable placement.Map assigns shards to
// slices. Slices can be added and removed at runtime (AddSlice,
// RemoveSlicesFrom) and whole shards relocated between them
// (RegisterEncodedAssigned, DropCopy) while matching continues — the
// broker's migration engine drives those moves.
package streamhub

import (
	"fmt"
	"hash/fnv"
	"sync"

	"scbr/internal/core"
	"scbr/internal/placement"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
)

// Hub places registrations on, and addresses matches to, partitioned
// scheme slices (NewFromSlices / NewFromSlicesPlaced). Every partition
// is a scheme-provided Slice storing whatever the scheme's wire
// encoding carries (sgx-plain, aspe, ...), so the surface is the
// encoded one: RegisterEncodedAt, UnregisterIn, MatchEncodedBatchIn.
//
// The hub assigns every subscription a full 64-bit ID up front —
// shard index in the top byte, a per-shard sequence below — and hands
// that ID to the slice store, so stored IDs ARE hub IDs: match
// results need no rewriting, and a subscription keeps its ID when its
// shard migrates to another slice.
//
// Locking: h.mu guards the owner and sequence bookkeeping. The
// partition list itself is only mutated by AddSlice and
// RemoveSlicesFrom; callers that resize concurrently with matching
// must externally fence those calls against in-flight match fan-outs
// (the broker holds its data-plane write lock across them).
type Hub struct {
	mu     sync.Mutex
	schema *pubsub.Schema
	parts  []scheme.Slice
	pm     *placement.Map
	owner  map[uint64]int // subscription ID → owning slice
	// shardSeq is the per-shard ID sequence (next = shardSeq+1).
	shardSeq []uint64
}

// Hub subscription IDs pack the virtual shard index into the top byte
// and a per-shard sequence below it.
const (
	idShift = 56
	idMask  = (uint64(1) << idShift) - 1
)

// MaxPartitions bounds a hub's slice count: a slice must be able to
// own at least one whole shard, and shard indices fit the top byte of
// a hub subscription ID.
const MaxPartitions = placement.MaxShards

func composeID(shard int, seq uint64) uint64 {
	return uint64(shard)<<idShift | seq
}

// ShardOf returns the virtual shard index packed into a hub ID.
func ShardOf(hubID uint64) int { return int(hubID >> idShift) }

// NewFromSlices builds a hub over pre-built scheme slices with a
// default placement map (placement.DefaultShards virtual shards,
// default seed).
func NewFromSlices(schema *pubsub.Schema, slices []scheme.Slice) (*Hub, error) {
	pm, err := placement.New(max(placement.DefaultShards, len(slices)), len(slices), 0)
	if err != nil {
		return nil, fmt.Errorf("streamhub: %w", err)
	}
	return NewFromSlicesPlaced(schema, slices, pm)
}

// NewFromSlicesPlaced builds a hub over pre-built scheme slices with a
// caller-owned placement map — the broker's partitioned data plane,
// where the matching scheme owns per-slice storage, the broker runs
// its own fan-out and enclave transitions, and the placement map is
// shared with the broker's migration engine.
func NewFromSlicesPlaced(schema *pubsub.Schema, slices []scheme.Slice, pm *placement.Map) (*Hub, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("streamhub: need at least one slice")
	}
	if pm == nil {
		return nil, fmt.Errorf("streamhub: nil placement map")
	}
	if pm.Slices() != len(slices) {
		return nil, fmt.Errorf("streamhub: placement map covers %d slices, hub has %d", pm.Slices(), len(slices))
	}
	h := &Hub{
		schema: schema, pm: pm, owner: make(map[uint64]int),
		shardSeq: make([]uint64, pm.Shards()),
	}
	for _, s := range slices {
		if s == nil {
			return nil, fmt.Errorf("streamhub: nil slice")
		}
		h.parts = append(h.parts, s)
	}
	return h, nil
}

// Partitions returns the number of slices.
func (h *Hub) Partitions() int { return len(h.parts) }

// Placement returns the hub's placement map (shared with the broker's
// migration engine when constructed via NewFromSlicesPlaced).
func (h *Hub) Placement() *placement.Map { return h.pm }

// Schema returns the shared attribute intern table; events matched
// against the hub must be interned through it.
func (h *Hub) Schema() *pubsub.Schema { return h.schema }

// ShardForKey deterministically places a registration key on a virtual
// shard (FNV-1a over the key parts, 0xff-separated so part boundaries
// are significant). Hash placement needs no coordination between
// registering connections and is stable across restarts and resizes —
// only the shard→slice assignment moves.
func (h *Hub) ShardForKey(parts ...[]byte) int {
	hash := fnv.New64a()
	for _, part := range parts {
		_, _ = hash.Write(part)
		_, _ = hash.Write([]byte{0xff})
	}
	return int(hash.Sum64() % uint64(h.pm.Shards()))
}

// SliceForShard resolves a shard's current slice through the placement
// map (observing any in-progress migration divert).
func (h *Hub) SliceForShard(shard int) int { return h.pm.SliceOf(shard) }

// reserveID allocates the next hub ID for a shard. Failed inserts
// leave sequence gaps, which is fine — IDs only need uniqueness.
func (h *Hub) reserveID(shard int) uint64 {
	h.mu.Lock()
	h.shardSeq[shard]++
	id := composeID(shard, h.shardSeq[shard])
	h.mu.Unlock()
	return id
}

// adopt records the slice that holds a successfully stored
// subscription. An ID the hub already owns is a migration copy:
// ownership flips to the new slice.
func (h *Hub) adopt(id uint64, slice int) {
	h.mu.Lock()
	h.owner[id] = slice
	h.mu.Unlock()
}

// bumpSeq raises a shard's sequence past a restored ID so future
// reservations never collide with re-ingested subscriptions.
func (h *Hub) bumpSeq(id uint64) {
	shard, seq := ShardOf(id), id&idMask
	h.mu.Lock()
	if h.shardSeq[shard] < seq {
		h.shardSeq[shard] = seq
	}
	h.mu.Unlock()
}

func (h *Hub) dropOwner(hubID uint64) (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	slice, ok := h.owner[hubID]
	delete(h.owner, hubID)
	return slice, ok
}

// Slice returns partition i's scheme store. The hub holds no partition
// lock: a caller that shares the slice reads it under its own.
func (h *Hub) Slice(i int) scheme.Slice { return h.parts[i] }

// OwnerSlice reports which slice currently holds a subscription.
func (h *Hub) OwnerSlice(hubID uint64) (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	slice, ok := h.owner[hubID]
	return slice, ok
}

// RegisterEncodedAt ingests one wire-encoded subscription for shard
// into slice target, returning its hub ID. The caller resolves
// target = SliceForShard(shard) under whatever fence keeps placement
// stable across the resolution and the insert.
func (h *Hub) RegisterEncodedAt(shard, target int, enc []byte, clientRef uint32) (uint64, error) {
	if shard < 0 || shard >= h.pm.Shards() {
		return 0, fmt.Errorf("streamhub: shard %d of %d", shard, h.pm.Shards())
	}
	if target < 0 || target >= len(h.parts) {
		return 0, fmt.Errorf("streamhub: partition %d of %d", target, len(h.parts))
	}
	slice := h.parts[target]
	id := h.reserveID(shard)
	if err := slice.RegisterEncodedAssigned(enc, clientRef, id); err != nil {
		return 0, err
	}
	h.adopt(id, target)
	return id, nil
}

// RegisterEncodedAssigned inserts a wire-encoded subscription into
// slice target under a hub ID issued earlier. It serves state restore
// (first sight of the ID) and the migration copy alike (the hub already
// owns the ID on another slice: ownership flips to target). The caller
// resolves target as for RegisterEncodedAt.
func (h *Hub) RegisterEncodedAssigned(target int, enc []byte, clientRef uint32, hubID uint64) error {
	if shard := ShardOf(hubID); shard >= h.pm.Shards() {
		return fmt.Errorf("streamhub: hub ID %d names shard %d, but the hub has %d", hubID, shard, h.pm.Shards())
	}
	if target < 0 || target >= len(h.parts) {
		return fmt.Errorf("streamhub: partition %d of %d", target, len(h.parts))
	}
	if err := h.parts[target].RegisterEncodedAssigned(enc, clientRef, hubID); err != nil {
		return err
	}
	h.bumpSeq(hubID)
	h.adopt(hubID, target)
	return nil
}

// DropCopy removes the stale physical copy of a migrated subscription
// from a slice without touching ownership. A no-op when the slice is
// the current owner (the migration was superseded) or the copy is
// already gone.
func (h *Hub) DropCopy(slice int, hubID uint64) {
	h.mu.Lock()
	owner, ok := h.owner[hubID]
	h.mu.Unlock()
	if ok && owner == slice {
		return
	}
	_ = h.parts[slice].Unregister(hubID)
}

// MatchEncodedBatchIn matches a batch of wire-encoded publication
// headers against partition i in one store pass, appending encs[j]'s
// matches to out[j]. Stored IDs are hub IDs, so the results need no
// rewriting. The per-item append semantics are the slice's
// MatchEncodedBatch: items that fail to decode contribute nothing, and
// the error return is reserved for whole-store failures. Safe to call
// concurrently for different partitions (the broker's parallel fan-out
// does).
func (h *Hub) MatchEncodedBatchIn(i int, encs [][]byte, out [][]core.MatchResult) error {
	return h.parts[i].MatchEncodedBatch(encs, out)
}

// AddSlice appends a new scheme slice to the hub (the grow half of a
// resize). The caller must fence the call against concurrent match
// fan-outs and update the placement map separately.
func (h *Hub) AddSlice(s scheme.Slice) error {
	if s == nil {
		return fmt.Errorf("streamhub: nil slice")
	}
	if len(h.parts)+1 > h.pm.Shards() {
		return fmt.Errorf("streamhub: %d slices exceed the %d-shard placement map", len(h.parts)+1, h.pm.Shards())
	}
	h.parts = append(h.parts, s)
	return nil
}

// RemoveSlicesFrom drops every slice at index ≥ k (the shrink half of
// a resize). It fails if any subscription still lives on a removed
// slice — the migration engine must have moved them all off first.
// The caller must fence the call against concurrent match fan-outs.
func (h *Hub) RemoveSlicesFrom(k int) error {
	if k < 1 || k > len(h.parts) {
		return fmt.Errorf("streamhub: cannot truncate %d slices to %d", len(h.parts), k)
	}
	h.mu.Lock()
	for id, slice := range h.owner {
		if slice >= k {
			h.mu.Unlock()
			return fmt.Errorf("streamhub: subscription %d still owned by removed slice %d", id, slice)
		}
	}
	h.mu.Unlock()
	for i := k; i < len(h.parts); i++ {
		h.parts[i] = nil
	}
	h.parts = h.parts[:k]
	return nil
}

// UnregisterIn removes a hub subscription from the slice that owns it.
func (h *Hub) UnregisterIn(hubID uint64) error {
	target, ok := h.dropOwner(hubID)
	if !ok {
		return fmt.Errorf("streamhub: %w: %d", core.ErrUnknownSubscription, hubID)
	}
	return h.parts[target].Unregister(hubID)
}
