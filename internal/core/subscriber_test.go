package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// TestOwnSubscriberPromotion registers k identical subscriptions — one
// node, its first subscriber in its header and the others in records —
// between a covering band and a covered one, and removes them oldest
// first, newest first and from the middle out, each order down to the
// last, which splices the node out. After every step the event's
// results are the outer band's, the shared node's live subscribers
// newest first, then the inner band's, equal to the per-event reference
// walk; the forest invariants hold and no released record is reachable.
// Every removal releases one record: a listed subscriber's, the list's
// tail when the node's own subscriber leaves and the tail takes its
// place, and the node itself with the last. Registering k identical
// subscriptions again takes them all back: the arena does not grow.
func TestOwnSubscriberPromotion(t *testing.T) {
	const k = 5
	for _, order := range []struct {
		name string
		idx  []int // positions in registration order, in removal order
	}{
		{"oldest-first", []int{0, 1, 2, 3, 4}},
		{"newest-first", []int{4, 3, 2, 1, 0}},
		{"middle-out", []int{2, 1, 3, 0, 4}},
	} {
		t.Run(order.name, func(t *testing.T) {
			e := newTestEngine(t)
			register := func(sp pubsub.SubscriptionSpec) uint64 {
				t.Helper()
				id, err := e.Register(sp, 7)
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			outer := register(spec(between("price", 0, 100)))
			inner := register(spec(between("price", 40, 60)))
			shared := spec(between("price", 10, 90))
			var ids []uint64
			for range k {
				ids = append(ids, register(shared))
			}
			node := e.subIndex[ids[0]]
			if h := e.readHeader(node); h.ownID != ids[0] || h.parent != e.subIndex[outer] {
				t.Fatalf("the shared node holds %d in its header under %d, want %d under the outer band", h.ownID, h.parent, ids[0])
			}
			ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(50)})
			recSize, nodeSize := e.alignSize(subRecordSize), e.nodeSize(int(e.readHeader(node).predLen))
			live := slices.Clone(ids)
			check := func(step string) {
				t.Helper()
				want := []MatchResult{{SubID: outer, ClientRef: 7}}
				for _, id := range slices.Backward(live) {
					want = append(want, MatchResult{SubID: id, ClientRef: 7})
				}
				want = append(want, MatchResult{SubID: inner, ClientRef: 7})
				got, err := e.MatchAppend(ev, nil)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: results %v, %v; want %v", step, got, err, want)
				}
				ref, err := e.matchPerEvent(ev, nil, true)
				if err != nil || !reflect.DeepEqual(ref, want) {
					t.Fatalf("%s: reference walk %v, %v; want %v", step, ref, err, want)
				}
				checkInvariants(t, e)
				checkReleased(t, e)
			}
			check("registered")
			for n, i := range order.idx {
				if err := e.Unregister(ids[i]); err != nil {
					t.Fatal(err)
				}
				live = slices.DeleteFunc(live, func(id uint64) bool { return id == ids[i] })
				step := fmt.Sprintf("%d removed, the last %d", n+1, ids[i])
				check(step)
				records := n + 1
				if len(live) == 0 {
					records = k - 1
					if !slices.Contains(e.free[nodeSize], node) {
						t.Fatalf("%s: the spliced node was not released", step)
					}
				}
				if got := len(e.free[recSize]); got != records {
					t.Fatalf("%s: %d subscriber records released, want %d", step, got, records)
				}
			}
			size := e.acc.Size()
			for range k {
				live = append(live, register(shared))
			}
			check("registered again")
			if e.acc.Size() != size || len(e.free[recSize]) != 0 {
				t.Fatalf("registering again grew the arena from %d to %d bytes, %d records left released", size, e.acc.Size(), len(e.free[recSize]))
			}
		})
	}
}

// TestSingleSubscriberVisitReadsNoRecord matches a lone event and a
// batch that reach every node of a store whose nodes each have one
// subscriber: every read the walk makes is a node's header or
// constraint blob, or a table's directory or leaf — the subscriber
// comes with the header. A second subscriber on one node adds exactly
// one read: its record, once per walk.
func TestSingleSubscriberVisitReadsNoRecord(t *testing.T) {
	log := &readLog{Accessor: newPlainAcc()}
	e, err := NewEngine(log, pubsub.NewSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i, sp := range []pubsub.SubscriptionSpec{
		spec(between("price", 0, 100)),
		spec(between("price", 10, 90)),
		spec(between("price", 40, 60)),
		spec(between("volume", 0, 100)),
		spec(eq("symbol", "HAL")),
		spec(eq("symbol", "HAL"), between("price", 0, 100)),
	} {
		id, err := e.Register(sp, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ev := event(t, e, map[string]pubsub.Value{"symbol": pubsub.Str("HAL"), "price": pubsub.Float(50), "volume": pubsub.Int(10)})
	// extra reports the reads of the last walk that are not a node's
	// header or blob, nor in a table's directory page or leaf.
	extra := func() [][2]uint64 {
		nodes := map[uint64]bool{e.general: true}
		for _, s := range e.shards {
			nodes[s] = true
		}
		for _, off := range e.subIndex {
			nodes[off] = true
		}
		var pages, leaves [][2]uint64
		for _, tab := range e.tables {
			for _, p := range tab.dir {
				pages = append(pages, [2]uint64{p, p + simmem.PageSize})
			}
			for j := 0; j < tab.leaves; j++ {
				d := decodeDir(log.Accessor.Read(tab.dirAt(j), dirEntrySize))
				leaves = append(leaves, [2]uint64{d.leaf, d.leaf + leafSize})
			}
		}
		within := func(rd [2]uint64, spans [][2]uint64) bool {
			return slices.ContainsFunc(spans, func(s [2]uint64) bool { return s[0] <= rd[0] && rd[1] <= s[1] })
		}
		var out [][2]uint64
		for _, rd := range log.reads {
			switch {
			case nodes[rd[0]] && rd[1]-rd[0] == nodeHeaderSize:
			case nodes[rd[0]-nodeHeaderSize]:
			case within(rd, pages), within(rd, leaves):
			default:
				out = append(out, rd)
			}
		}
		return out
	}
	walk := func(want []uint64) [][2]uint64 {
		t.Helper()
		log.reads = log.reads[:0]
		lone, err := e.MatchAppend(ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]MatchResult, 40)
		if err := e.MatchAppendBatch(slices.Repeat([]*pubsub.Event{ev}, len(out)), out); err != nil {
			t.Fatal(err)
		}
		for _, res := range append(out, lone) {
			got := make([]uint64, len(res))
			for i, m := range res {
				got[i] = m.SubID
			}
			if !reflect.DeepEqual(slices.Sorted(slices.Values(got)), want) {
				t.Fatalf("matched %v, want every subscription %v", got, want)
			}
		}
		return extra()
	}
	if reads := walk(ids); len(reads) != 0 {
		t.Fatalf("walks over single-subscriber nodes read %v beyond headers, blobs and tables", reads)
	}

	second, err := e.Register(spec(between("price", 10, 90)), 9)
	if err != nil {
		t.Fatal(err)
	}
	rec := e.readHeader(e.subIndex[second]).firstSub
	if rec == nilOff {
		t.Fatal("the second subscriber has no record")
	}
	want := [][2]uint64{{rec, rec + subRecordSize}, {rec, rec + subRecordSize}} // the lone walk's, the batch's
	if reads := walk(slices.Sorted(slices.Values(append(ids, second)))); !reflect.DeepEqual(reads, want) {
		t.Fatalf("with a second subscriber on one node the walks read %v beyond headers, blobs and tables, want its record once each: %v", reads, want)
	}
}
