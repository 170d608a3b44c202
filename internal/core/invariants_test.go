package core

import (
	"math/rand"
	"testing"

	"scbr/internal/pubsub"
)

// checkInvariants walks every shard forest and asserts the structural
// invariants the matcher's pruning soundness depends on:
//
//  1. acyclicity — every node is reached exactly once,
//  2. covering — every parent's constraints cover each child's,
//  3. subscriber consistency — every node but a sentinel holds its own
//     subscriber in its header, a sentinel none and no list, the
//     engine's ID index points at nodes that actually hold the
//     subscription, and every held subscription is in the index,
//  4. accounting — the live-node counter matches the walk,
//  5. the tables — each lists its node's children, in chain order, and
//     only tabled nodes are flagged (checkTables).
func checkInvariants(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()

	sentinels := make([]uint64, 0, len(e.shards)+1)
	sentinels = append(sentinels, e.general)
	for _, s := range e.shards {
		sentinels = append(sentinels, s)
	}
	visited := make(map[uint64]bool)
	subsSeen := make(map[uint64]uint64) // subID → node offset
	liveNodes := 0

	var walk func(off uint64, parentCs []pubsub.Constraint)
	walk = func(off uint64, parentCs []pubsub.Constraint) {
		if visited[off] {
			t.Fatalf("node %d reached twice: cycle or shared child", off)
		}
		visited[off] = true
		h := e.readHeader(off)
		mine, err := e.decodeNode(off, h)
		if err != nil {
			t.Fatalf("node %d: %v", off, err)
		}
		if parentCs != nil {
			p := pubsub.Subscription{Constraints: parentCs}
			c := pubsub.Subscription{Constraints: mine}
			if !p.Covers(&c) {
				t.Fatalf("covering violated: parent %+v does not cover child %+v", parentCs, mine)
			}
		}
		if h.predLen > 0 {
			liveNodes++
		}
		// Subscriber consistency: a node has its own subscriber, a
		// sentinel none, and the list only beside an own subscriber.
		if own := h.flags&flagOwnSub != 0; own == (h.parent == nilOff) || !own && h.firstSub != nilOff {
			t.Fatalf("node %d (parent %d): flags %#x, list at %d", off, h.parent, h.flags, h.firstSub)
		}
		for _, sub := range e.appendSubscribers(nil, h) {
			id := sub.SubID
			if nodeOff, ok := e.subIndex[id]; !ok || nodeOff != off {
				t.Fatalf("subscription %d listed on node %d but indexed at %d (ok=%v)", id, off, nodeOff, ok)
			}
			if _, dup := subsSeen[id]; dup {
				t.Fatalf("subscription %d appears on two nodes", id)
			}
			subsSeen[id] = off
		}
		child := h.child
		for child != nilOff {
			walk(child, mine)
			child = e.readHeader(child).sibling
		}
	}
	for _, s := range sentinels {
		walk(s, nil)
	}

	if len(subsSeen) != len(e.subIndex) {
		t.Fatalf("walk found %d subscriptions, index holds %d", len(subsSeen), len(e.subIndex))
	}
	// Tombstone-free design: every walked node with constraints should
	// be live; nodes whose subscribers were all removed are spliced
	// out, so liveNodes must equal the counter.
	if liveNodes != e.nodesLive {
		t.Fatalf("walk found %d live nodes, counter says %d", liveNodes, e.nodesLive)
	}
	checkTables(t, e, accRead(e))
}

// TestInvariantsUnderChurn drives random register/unregister traffic
// and validates the forest invariants at checkpoints.
func TestInvariantsUnderChurn(t *testing.T) {
	for _, opts := range []Options{{}, {DisableSharding: true}, {PadRecordTo: 300}, {CacheAlign: true}, {CacheAlign: true, PadRecordTo: 437, DisableSharding: true}} {
		e := newTestEngineOpts(t, opts)
		rng := rand.New(rand.NewSource(77))
		var live []uint64
		for step := 0; step < 3000; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := e.Unregister(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				id, err := e.Register(randomSpec(rng), uint32(step))
				if err != nil {
					continue
				}
				live = append(live, id)
			}
			if step%500 == 499 {
				checkInvariants(t, e)
			}
		}
		checkInvariants(t, e)
		if st := e.Stats(); st.Subscriptions != len(live) {
			t.Fatalf("stats %d vs live %d", st.Subscriptions, len(live))
		}
	}
}

func newTestEngineOpts(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(newPlainAcc(), pubsub.NewSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
