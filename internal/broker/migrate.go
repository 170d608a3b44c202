// The router's migration engine: online slice split/merge over the
// movable placement map (internal/placement). Repartition resizes the
// enclave matcher fleet from k to k′ slices while publications,
// registrations, and removals keep flowing; whole virtual shards are
// the unit of movement, and the transport reuses the router's sealed
// persistence machinery — a shard's registrations are sealed inside
// the source slice's enclave, unsealed inside the destination's (both
// run the same measured image, so SealToMRENCLAVE transports), and
// re-ingested under their original IDs.
//
// The protocol per move group (one source→destination slice pair):
//
//  1. Fence (stateMu exclusive): divert the moving shards in the
//     placement map — new registrations resolve to the destination
//     from here on — and snapshot the registration-log entries of
//     those shards. Nothing can race the snapshot: registrations hold
//     the fence shared for resolution + insert.
//  2. Seal the snapshot in the source enclave; unseal in the
//     destination enclave.
//  3. Arm delivery dedup: until the stale source copies are swept, a
//     moving subscription exists on two slices and would match twice.
//  4. Import each entry into the destination under its original ID,
//     serialised (migEntryMu) against client removals on the moving
//     shards so a remove cannot be resurrected by a later import.
//  5. Commit (stateMu exclusive): flip the placement table, bump the
//     epoch, clear the shard fence.
//  6. Flush barrier: wait out every publication dispatched before the
//     flip (a sentinel through the merger). The barrier hold time is
//     the migration's pause cost.
//  7. Sweep: drop the stale source copies. Duplicate deliveries in
//     the window between 4 and 7 are collapsed by deliver's dedup;
//     the client-side cursor machinery (PR 4) makes any that predate
//     the arming harmless.
//
// Growth appends freshly launched slices (same image, same per-slice
// EPC share, scheme parameters re-applied) before the moves; shrink
// removes the highest-indexed slices after every shard has moved off
// them. Partition 0 — the attestation slice — is never removed.

package broker

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"scbr/internal/placement"
	"scbr/internal/sgx"
	"scbr/internal/streamhub"
)

// shardExport is the sealed migration payload: the moving shards'
// registration-log entries, ciphertext-at-rest exactly as logged.
type shardExport struct {
	From    int        `json:"from"`
	To      int        `json:"to"`
	Entries []logEntry `json:"entries"`
}

// migrationAAD binds a sealed shard export to its source→destination
// pair, so a blob sealed for one move cannot be replayed into another.
func migrationAAD(from, to int) []byte {
	return []byte(fmt.Sprintf("scbr-shard-migration:%d>%d", from, to))
}

// PlacementSnapshot reports the placement map's observable state: the
// shard→slice table, the epoch, and the migration counters.
func (r *Router) PlacementSnapshot() placement.Snapshot {
	return r.pm.Snapshot()
}

// Repartition resizes the router's data plane to k enclave matcher
// slices, migrating whole shards between slices while traffic flows.
// Committed move groups survive an error or a cancelled context — the
// router is always left in a consistent (if intermediate) placement.
// Concurrent calls serialise; k must be in [1, PlacementShards], or 0
// to resize to RecommendPartitions() — the footprint-sized count a
// deployment plan (deploy.Plan) recommends.
func (r *Router) Repartition(ctx context.Context, k int) (placement.Snapshot, error) {
	// Register with the router's worker group under the same
	// closing-check pattern as Serve's accept loop, so Close waits for
	// an in-flight resize before tearing the pipeline down.
	r.connMu.Lock()
	select {
	case <-r.closing:
		r.connMu.Unlock()
		return placement.Snapshot{}, ErrClosed
	default:
	}
	r.wg.Add(1)
	r.connMu.Unlock()
	defer r.wg.Done()

	r.migMu.Lock()
	defer r.migMu.Unlock()

	if k == 0 {
		k = r.RecommendPartitions()
	}
	if k < 1 || k > r.pm.Shards() {
		return r.pm.Snapshot(), fmt.Errorf("broker: repartition to %d slices out of range [1,%d shards]", k, r.pm.Shards())
	}
	cur := r.pm.Slices()
	if k == cur {
		return r.pm.Snapshot(), nil
	}

	var pause int64
	var subsMoved uint64

	if k > cur {
		if err := r.growSlices(cur, k); err != nil {
			return r.pm.Snapshot(), err
		}
	}

	moves, err := r.pm.Plan(k)
	if err != nil {
		return r.pm.Snapshot(), err
	}
	for _, g := range groupMoves(moves) {
		if err := ctx.Err(); err == nil {
			select {
			case <-r.closing:
				err = ErrClosed
			default:
			}
		} else {
			err = fmt.Errorf("broker: repartition interrupted: %w", err)
		}
		if err != nil {
			r.finishMigration(subsMoved, pause)
			return r.pm.Snapshot(), err
		}
		moved, groupPause, groupErr := r.migrateGroup(g)
		subsMoved += moved
		pause += groupPause
		if groupErr != nil {
			r.finishMigration(subsMoved, pause)
			return r.pm.Snapshot(), fmt.Errorf("broker: migrating shards %d→%d: %w", g.from, g.to, groupErr)
		}
	}

	if k < cur {
		shrinkPause, err := r.shrinkSlices(k)
		pause += shrinkPause
		if err != nil {
			r.finishMigration(subsMoved, pause)
			return r.pm.Snapshot(), err
		}
	}

	r.finishMigration(subsMoved, pause)
	return r.pm.Snapshot(), nil
}

// finishMigration disarms delivery dedup behind one last barrier (so
// no already-matched duplicate slips out after the flag drops) and
// records the run's counters.
func (r *Router) finishMigration(subsMoved uint64, pause int64) {
	if r.dedupActive.Load() {
		r.drainPlane()
		r.dedupActive.Store(false)
	}
	r.pm.FinishMigration(subsMoved, pause)
}

// moveGroup is one source→destination slice pair's worth of a plan.
type moveGroup struct {
	from, to int
	moves    []placement.Move
}

// groupMoves splits a plan by (from, to) pair, preserving the plan's
// deterministic order.
func groupMoves(moves []placement.Move) []moveGroup {
	var groups []moveGroup
	for _, mv := range moves {
		if n := len(groups); n > 0 && groups[n-1].from == mv.From && groups[n-1].to == mv.To {
			groups[n-1].moves = append(groups[n-1].moves, mv)
			continue
		}
		groups = append(groups, moveGroup{from: mv.From, to: mv.To, moves: []placement.Move{mv}})
	}
	return groups
}

// growSlices launches slices cur..k-1 (launchSlice: the same enclave
// image, the same per-slice EPC share), re-applies the provisioned
// scheme parameters, and splices them into the data plane under the
// state and plane fences.
func (r *Router) growSlices(cur, k int) error {
	r.keyMu.RLock()
	params := append([]byte(nil), r.schemeParams...)
	provisioned := r.sk != nil
	r.keyMu.RUnlock()

	fresh := make([]*partition, 0, k-cur)
	undo := func() {
		for _, p := range fresh {
			p.enclave.Terminate()
		}
	}
	for i := cur; i < k; i++ {
		p, err := r.launchSlice(i)
		if err != nil {
			undo()
			return err
		}
		fresh = append(fresh, p)
		if provisioned {
			if err := p.enclave.Ecall(func() error { return p.slice.Configure(params) }); err != nil {
				undo()
				return fmt.Errorf("broker: configuring scheme parameters on new slice %d: %w", i, err)
			}
		}
	}

	r.stateMu.Lock()
	r.planeMu.Lock()
	r.drainPlane()
	for _, p := range fresh {
		r.parts = append(r.parts, p)
		if err := r.hub.AddSlice(p.slice); err != nil {
			// Roll the splice back; nothing has been dispatched to the
			// new slices while both fences are held.
			r.parts = r.parts[:len(r.parts)-1]
			r.planeMu.Unlock()
			r.stateMu.Unlock()
			undo()
			return fmt.Errorf("broker: %w", err)
		}
	}
	err := r.pm.SetSlices(k)
	r.planeMu.Unlock()
	r.stateMu.Unlock()
	if err != nil {
		return fmt.Errorf("broker: %w", err)
	}
	for _, p := range fresh {
		go r.sliceWorker(p)
	}
	return nil
}

// shrinkSlices removes every slice at index ≥ k after the moves have
// emptied them, then tears down their workers and enclaves.
// Returns the time the data plane was fenced.
func (r *Router) shrinkSlices(k int) (int64, error) {
	start := time.Now()
	r.stateMu.Lock()
	r.planeMu.Lock()
	r.drainPlane()
	var removed []*partition
	err := r.pm.SetSlices(k)
	if err == nil {
		err = r.hub.RemoveSlicesFrom(k)
	}
	if err == nil {
		removed = append(removed, r.parts[k:]...)
		for i := k; i < len(r.parts); i++ {
			r.parts[i] = nil
		}
		r.parts = r.parts[:k]
	}
	r.planeMu.Unlock()
	r.stateMu.Unlock()
	pause := time.Since(start).Nanoseconds()
	if err != nil {
		return pause, fmt.Errorf("broker: %w", err)
	}
	// No publication can reach the removed slices past the fence, and
	// the drain under it emptied their queues.
	stopWorkers(removed)
	for _, p := range removed {
		p.enclave.Terminate()
	}
	return pause, nil
}

// migrateGroup moves one group of shards from one slice to another
// using the sealed-transport protocol described in the file header.
// Entries that fail to import stay live on the source slice (still
// matched and removable through the ownership index) and are excluded
// from the sweep; the group still commits.
func (r *Router) migrateGroup(g moveGroup) (subsMoved uint64, pause int64, err error) {
	shardSet := make(map[int]bool, len(g.moves))
	for _, mv := range g.moves {
		shardSet[mv.Shard] = true
	}

	// 1. Fence: divert the shards and snapshot their log entries.
	r.stateMu.Lock()
	r.pm.Begin(g.moves)
	for s := range shardSet {
		r.migShards[s] = true
	}
	r.migEntryMu.Lock()
	r.migRemoved = make(map[uint64]bool)
	r.migEntryMu.Unlock()
	var entries []logEntry
	r.ctlMu.RLock()
	for _, ent := range r.regLog {
		if shardSet[streamhub.ShardOf(ent.SubID)] {
			entries = append(entries, ent)
		}
	}
	r.ctlMu.RUnlock()
	r.stateMu.Unlock()

	commit := func() {
		r.stateMu.Lock()
		r.pm.Commit(g.moves)
		for s := range shardSet {
			delete(r.migShards, s)
		}
		r.stateMu.Unlock()
	}

	src, dst := r.parts[g.from], r.parts[g.to]

	// 2. Seal in the source enclave, unseal in the destination's. A
	// transport failure still commits: the placement flips, the
	// un-copied entries stay live on the source through the ownership
	// index, and the error reports the degraded move.
	var sealed []byte
	if len(entries) > 0 {
		raw, marshalErr := json.Marshal(shardExport{From: g.from, To: g.to, Entries: entries})
		if marshalErr != nil {
			commit()
			return 0, 0, fmt.Errorf("encoding shard export: %w", marshalErr)
		}
		src.mu.Lock()
		err = src.enclave.Ecall(func() error {
			var sealErr error
			sealed, sealErr = src.enclave.Seal(sgx.SealToMRENCLAVE, raw, migrationAAD(g.from, g.to))
			return sealErr
		})
		src.mu.Unlock()
		if err != nil {
			commit()
			return 0, 0, fmt.Errorf("sealing shard export: %w", err)
		}
		var opened []byte
		dst.mu.Lock()
		err = dst.enclave.Ecall(func() error {
			var unsealErr error
			opened, unsealErr = dst.enclave.Unseal(sealed, migrationAAD(g.from, g.to))
			return unsealErr
		})
		dst.mu.Unlock()
		if err != nil {
			commit()
			return 0, 0, fmt.Errorf("unsealing shard export: %w", err)
		}
		var export shardExport
		if err = json.Unmarshal(opened, &export); err != nil {
			commit()
			return 0, 0, fmt.Errorf("decoding shard export: %w", err)
		}
		entries = export.Entries
	}

	// 3–4. Two-copy window: arm delivery dedup, then ingest each entry
	// into the destination under its original ID — the registration
	// path's own ingest; the seal authenticated the entries. Per-entry
	// serialisation against removals (migEntryMu) keeps a remove from
	// being resurrected.
	var imported []uint64
	if len(entries) > 0 {
		r.dedupActive.Store(true)
		var failed int
		var firstErr error
		item, only := make([]regItem, 1), []int{0}
		for _, ent := range entries {
			r.migEntryMu.Lock()
			if r.migRemoved[ent.SubID] {
				r.migEntryMu.Unlock()
				continue
			}
			item[0] = regItem{logEntry: ent} // the ID names its shard
			_, ierr := r.ingestGroup(g.to, r.keys(), item, only)
			r.migEntryMu.Unlock()
			if ierr != nil {
				if failed++; firstErr == nil {
					firstErr = fmt.Errorf("subscription %d: %w", ent.SubID, ierr)
				}
				continue
			}
			imported = append(imported, ent.SubID)
		}
		subsMoved = uint64(len(imported))
		if failed > 0 {
			err = fmt.Errorf("%d of %d entries failed to import (left on the source slice): %w", failed, len(entries), firstErr)
		}
	}

	// 5. Commit the placement flip.
	commit()

	// 6. Flush barrier — the pause this move charges the data plane.
	start := time.Now()
	r.drainPlane()
	pause = time.Since(start).Nanoseconds()

	// 7. Sweep the stale source copies of what was imported. DropCopy
	// skips anything the destination no longer owns.
	if len(imported) > 0 {
		src.mu.Lock()
		_ = src.enclave.Ecall(func() error {
			for _, id := range imported {
				r.hub.DropCopy(g.from, id)
			}
			return nil
		})
		src.mu.Unlock()
	}
	return subsMoved, pause, err
}

// drainPlane waits until every publication dispatched before the call
// has been matched and delivered: a dispatched job is in the merge
// queue before its producer drops pushMu, so a sentinel enqueued under
// pushMu follows them all, and the merger waits out each one's slice
// contributions before reaching it. It is the migration engine's one
// barrier. A publication dispatched after the sentinel is matched after
// whatever the caller does next, which is all a move group's cutover
// and the dedup disarm need; growSlices and shrinkSlices, which mutate
// the slice set the workers read, call it under the plane write lock so
// that nothing is dispatched behind it. The merger only takes delivery
// locks (ctlMu and below), so waiting on it there cannot deadlock.
func (r *Router) drainPlane() {
	job := &matchJob{flush: make(chan struct{})}
	r.pushMu.Lock()
	r.merge <- job
	r.pushMu.Unlock()
	<-job.flush
}
