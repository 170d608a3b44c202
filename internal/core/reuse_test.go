package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// reuseSpec draws subscription i of the quote mix — symbol equality, a
// price band, symbol plus a volume band, in rotation — over 40 symbols
// of one length and coarse bands, so that nodes are shared, bands cover
// one another, and equality shards fill and empty as the window moves.
func reuseSpec(rng *rand.Rand, i int) pubsub.SubscriptionSpec {
	symbol := pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str(fmt.Sprintf("S%d", 10+rng.Intn(40)))}
	switch i % 3 {
	case 0:
		return spec(symbol)
	case 1:
		lo := float64(5 * rng.Intn(18))
		return spec(between("price", lo, lo+float64(5+5*rng.Intn(3))))
	default:
		return spec(symbol, between("volume", float64(100*rng.Intn(5)), 1000))
	}
}

// arenaPages is the number of arena pages the engine has allocated into.
func arenaPages(e *Engine) uint64 {
	return (e.acc.Size() + simmem.PageSize - 1) / simmem.PageSize
}

// checkReleased asserts that no released record is reachable — from a
// sentinel, a header link, a subscriber list or the subscription index
// or a table's index — that no record is released twice, and that
// every reachable record was rewritten whole when it was allocated
// (a node's flags its own subscriber's and its reserved byte zero, that
// subscriber indexed at it, a sentinel's flags and subscriber bytes
// zero, a subscriber record's reserved bytes zero; checkTables holds
// the links). It then poisons every released record, so
// that a reuse which leaves any byte unwritten is caught by the checks
// of the next step.
func checkReleased(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	released := make(map[uint64]int)
	for size, offs := range e.free {
		for _, off := range offs {
			if _, twice := released[off]; twice {
				t.Fatalf("record %d released twice", off)
			}
			released[off] = size
		}
	}
	reachable := func(what string, off uint64) {
		if _, ok := released[off]; ok {
			t.Fatalf("%s %d is on a free list", what, off)
		}
	}
	stack := []uint64{e.general}
	for key, s := range e.shards {
		if k, ok := e.shardOf[s]; !ok || k != key {
			t.Fatalf("sentinel %d of shard %+v maps back to %+v (ok=%v)", s, key, k, ok)
		}
		stack = append(stack, s)
	}
	if len(e.shardOf) != len(e.shards) {
		t.Fatalf("%d sentinels named, %d shards", len(e.shardOf), len(e.shards))
	}
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reachable("node", off)
		raw := e.acc.Read(off, nodeHeaderSize)
		h := decodeHeader(raw)
		if h.parent == nilOff {
			if !bytes.Equal(raw[offFlags:offPrev], make([]byte, offPrev-offFlags)) || h.ownID != 0 {
				t.Fatalf("sentinel %d: flags, reserved and subscriber bytes % x, subscriber %d, want zero", off, raw[offFlags:offPrev], h.ownID)
			}
		} else if h.flags != flagOwnSub || raw[offFlags+1] != 0 || e.subIndex[h.ownID] != off {
			t.Fatalf("node %d: flags %#x, reserved byte %#x, own subscriber %d indexed at %d; want %#x, 0 and the node",
				off, h.flags, raw[offFlags+1], h.ownID, e.subIndex[h.ownID], flagOwnSub)
		}
		for sub := h.firstSub; sub != nilOff; {
			reachable("subscriber record", sub)
			rec := e.acc.Read(sub, subRecordSize)
			if !bytes.Equal(rec[20:], make([]byte, 4)) {
				t.Fatalf("subscriber record %d: reserved bytes % x, want zero", sub, rec[20:])
			}
			sub = leUint64(rec)
		}
		for c := h.child; c != nilOff; c = e.readHeader(c).sibling {
			stack = append(stack, c)
		}
	}
	for _, node := range slices.Sorted(maps.Keys(e.tables)) {
		tab := e.tables[node]
		for _, page := range tab.dir {
			reachable(fmt.Sprintf("a directory page of node %d's index,", node), page)
		}
		for j := 0; j < tab.leaves; j++ {
			reachable(fmt.Sprintf("a leaf of node %d's index,", node), e.readDir(tab, j).leaf)
		}
	}
	for id, off := range e.subIndex {
		if _, ok := released[off]; ok {
			t.Fatalf("subscription %d is indexed at node %d, which is on a free list", id, off)
		}
	}
	for off, size := range released {
		e.acc.Write(off, bytes.Repeat([]byte{0xa5}, size))
	}
}

// TestUnregisterReusesRecords fills a store from the quote mix, then
// takes 10,000 steps of register-one / unregister-oldest at a constant
// live set. The records every removal unlinks are reused, so the last
// 5,000 steps add no arena page; after every step no released record is
// reachable, the forest invariants hold, and a fixed probe set matches
// exactly the brute-force evaluation of the live subscriptions, in the
// order of the per-event reference walk.
func TestUnregisterReusesRecords(t *testing.T) {
	const (
		seed  = 1
		live  = 60
		steps = 10_000
	)
	for _, opts := range []Options{{}, {CacheAlign: true}, {PadRecordTo: 300}, {DisableSharding: true}} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			step := -1
			defer func() {
				if t.Failed() {
					t.Logf("seed %d, step %d", seed, step)
				}
			}()
			e := newTestEngineOpts(t, opts)
			rng := rand.New(rand.NewSource(seed))
			probes := make([]*pubsub.Event, 12)
			for i := range probes {
				probes[i] = event(t, e, map[string]pubsub.Value{
					"symbol": pubsub.Str(fmt.Sprintf("S%d", 10+rng.Intn(40))),
					"price":  pubsub.Float(float64(rng.Intn(100))),
					"volume": pubsub.Int(int64(rng.Intn(1000))),
				})
			}
			type liveSub struct {
				id  uint64
				sub *pubsub.Subscription
			}
			var window []liveSub // oldest first, so in ID order
			register := func(i int) {
				sub, err := pubsub.Normalize(e.Schema(), reuseSpec(rng, i))
				if err != nil {
					t.Fatal(err)
				}
				id, err := e.RegisterNormalized(sub, uint32(i))
				if err != nil {
					t.Fatal(err)
				}
				window = append(window, liveSub{id, sub})
			}
			for i := 0; i < live; i++ {
				register(i)
			}
			out := make([][]MatchResult, len(probes))
			var half uint64
			for step = 0; step < steps; step++ {
				register(live + step)
				if err := e.Unregister(window[0].id); err != nil {
					t.Fatal(err)
				}
				window = window[1:]

				checkReleased(t, e)
				checkInvariants(t, e)
				for i := range out {
					out[i] = out[i][:0]
				}
				if err := e.MatchAppendBatch(probes, out); err != nil {
					t.Fatal(err)
				}
				for i, ev := range probes {
					ref, err := e.matchPerEvent(ev, nil, true)
					if err != nil {
						t.Fatal(err)
					}
					if len(out[i])+len(ref) > 0 && !reflect.DeepEqual(out[i], ref) {
						t.Fatalf("probe %d: batch walk %v, per-event walk %v", i, out[i], ref)
					}
					ids := make([]uint64, len(out[i]))
					for j, m := range out[i] {
						ids[j] = m.SubID
					}
					slices.Sort(ids)
					var want []uint64
					for _, l := range window {
						if l.sub.Matches(ev) {
							want = append(want, l.id)
						}
					}
					if !slices.Equal(ids, want) {
						t.Fatalf("probe %d: engine %v, brute force %v", i, ids, want)
					}
				}
				if step == steps/2-1 {
					half = arenaPages(e)
				}
			}
			if st := e.Stats(); st.Subscriptions != live {
				t.Fatalf("%d live subscriptions, want %d", st.Subscriptions, live)
			}
			if got := arenaPages(e); got != half {
				t.Fatalf("the last %d steps grew the arena from %d to %d pages", steps/2, half, got)
			}
		})
	}
}

// TestUnregisterDropsEmptyShards: an equality shard whose last
// subscription leaves is dropped with its sentinel, so a store that
// sees ever-new equality values (order IDs, session keys) holds only
// its live shards, and a second round of new values adds no arena byte.
func TestUnregisterDropsEmptyShards(t *testing.T) {
	e := newTestEngine(t)
	const n = 1000
	round := func(prefix string) {
		t.Helper()
		ids := make([]uint64, n)
		for i := range ids {
			var err error
			if ids[i], err = e.Register(spec(eq("order", fmt.Sprintf("%s%04d", prefix, i)), lt("price", 50)), uint32(i)); err != nil {
				t.Fatalf("round %s, register %d: %v", prefix, i, err)
			}
		}
		if st := e.Stats(); st.Shards != n+1 {
			t.Fatalf("round %s: %d shards after %d fresh values, want %d", prefix, st.Shards, n, n+1)
		}
		for i, id := range ids {
			if err := e.Unregister(id); err != nil {
				t.Fatalf("round %s, unregister %d: %v", prefix, i, err)
			}
		}
		if st := e.Stats(); st.Shards != 1 || st.Subscriptions != 0 || st.Nodes != 0 {
			t.Fatalf("round %s: stats %+v after every subscription left, want the general shard alone", prefix, st)
		}
		checkInvariants(t, e)
	}
	round("A")
	size := e.Stats().Bytes
	round("B")
	if grew := e.Stats().Bytes - size; grew != 0 {
		t.Fatalf("the second round grew the arena by %d bytes", grew)
	}

	// A dropped shard is made again on demand and matches.
	id, err := e.Register(spec(eq("order", "A0007"), lt("price", 50)), 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := event(t, e, map[string]pubsub.Value{"order": pubsub.Str("A0007"), "price": pubsub.Float(1)})
	if got := matchIDs(t, e, ev); len(got) != 1 || got[0] != id {
		t.Fatalf("match after the shard came back = %v, want [%d]", got, id)
	}
	if st := e.Stats(); st.Shards != 2 || st.Bytes != size {
		t.Fatalf("stats %+v, want 2 shards in %d bytes", st, size)
	}
}
