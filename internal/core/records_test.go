package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scbr/internal/pubsub"
)

// matchRows is MatchRecords expanded into per-event rows (AppendRows):
// evs and out are parallel, and out[i] receives exactly the
// MatchAppend(evs[i]) results in the same order. The records are kept
// in the engine's scratch, so no other call may match beside it.
func (e *Engine) matchRows(evs []*pubsub.Event, out [][]MatchResult) error {
	if len(out) < len(evs) {
		return fmt.Errorf("core: batch result slots %d < events %d", len(out), len(evs))
	}
	e.recs = e.MatchRecords(evs, e.recs[:0])
	AppendRows(out, e.recs)
	return nil
}

// checkRecords holds a batch's records to their shape: every record
// names at least one event, all of its own chunk (Base a chunk's first
// index, no bit past the batch), and none of the batch's nil holes.
func checkRecords(t *testing.T, what string, evs []*pubsub.Event, recs []Record) {
	t.Helper()
	for k, r := range recs {
		if r.Mask == 0 || r.Base%walkChunk != 0 || int(r.Base) >= len(evs) {
			t.Fatalf("%s: record %d = %+v: want a non-empty mask at a chunk's first index below %d", what, k, r, len(evs))
		}
		if w := len(evs) - int(r.Base); w < 64 && r.Mask>>uint(w) != 0 {
			t.Fatalf("%s: record %d = %+v names events past the batch of %d", what, k, r, len(evs))
		}
		for m := r.Mask; m != 0; m &= m - 1 {
			if evs[int(r.Base)+bits.TrailingZeros64(m)] == nil {
				t.Fatalf("%s: record %d = %+v names a dropped item", what, k, r)
			}
		}
	}
}

// TestMatchRecordsExpandToPerEventRows holds the walk's records to the
// per-event walk. On the walk corpora (the PR 7 batch-equivalence and
// PR 8 repartition-equivalence corpora, a random one and the wide one),
// at batches of 1, 32, 64 and 100 events — the last two chunks, the
// second at Base 64 — with nil holes, MatchRecords appends after what
// out held, its records are well formed (checkRecords), and expanded by
// AppendRows they give every event exactly the per-event walk's
// results, in its order: no event bit dropped or added, no walk
// reordered. A subscription is one record per chunk, so 100 copies of
// one event give that event's matches twice, each with a full mask.
func TestMatchRecordsExpandToPerEventRows(t *testing.T) {
	for _, seed := range []int64{19, 20} {
		for _, c := range walkCorpora(seed) {
			if seed != 19 && c.name != "random" {
				continue // the fixed corpora do not depend on the seed
			}
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				got, ref := c.build(t, newPlainAcc()), c.build(t, newPlainAcc())
				events, refOf := make([]*pubsub.Event, len(c.events)), make(map[*pubsub.Event]*pubsub.Event)
				for i, attrs := range c.events {
					events[i] = event(t, got, attrs)
					refOf[events[i]] = event(t, ref, attrs)
				}
				rng := rand.New(rand.NewSource(seed))
				prior := Record{SubID: ^uint64(0), ClientRef: 7, Base: 3, Mask: 5}
				matched, records := 0, 0
				for _, n := range []int{1, 32, 64, 100} {
					for round := 0; round < 3; round++ {
						what := fmt.Sprintf("batch %d round %d", n, round)
						evs := make([]*pubsub.Event, n)
						for i := range evs {
							if n > 1 && rng.Intn(6) == 0 {
								continue // a dropped item keeps its index
							}
							evs[i] = events[rng.Intn(len(events))]
						}
						recs := got.MatchRecords(evs, []Record{prior})
						if recs[0] != prior {
							t.Fatalf("%s: MatchRecords overwrote what out held: %+v", what, recs[0])
						}
						recs = recs[1:]
						checkRecords(t, what, evs, recs)
						rows := make([][]MatchResult, n)
						AppendRows(rows, recs)
						k := chunkEvents(evs)
						for i, ev := range evs {
							var want []MatchResult
							if ev != nil {
								var err error
								if want, err = ref.matchPerEvent(refOf[ev], nil, k[i] <= tableWalkMax); err != nil {
									t.Fatal(err)
								}
							}
							if len(rows[i])+len(want) > 0 && !reflect.DeepEqual(rows[i], want) {
								t.Fatalf("%s item %d: records expand to %s", what, i, firstDiff(rows[i], want))
							}
							matched += len(want)
						}
						records += len(recs)
					}
				}
				if matched == 0 {
					t.Fatal("no event matched anything")
				}
				if records > matched {
					t.Fatalf("%d records for %d matches", records, matched)
				}

				for _, ev := range events[:min(len(events), 8)] {
					same := slices.Repeat([]*pubsub.Event{ev}, 100)
					recs := got.MatchRecords(same, nil)
					one, err := ref.matchPerEvent(refOf[ev], nil, false)
					if err != nil {
						t.Fatal(err)
					}
					if len(recs) != 2*len(one) {
						t.Fatalf("100 copies of an event that matches %d gave %d records, want %d", len(one), len(recs), 2*len(one))
					}
					for j, r := range recs {
						chunk, mask := j/max(len(one), 1), ^uint64(0)
						if chunk == 1 {
							mask = 1<<36 - 1
						}
						if r.Base != uint32(chunk*walkChunk) || r.Mask != mask || r.SubID != one[j%len(one)].SubID || r.ClientRef != one[j%len(one)].ClientRef {
							t.Fatalf("copy record %d = %+v, want %v at Base %d with mask %#x", j, r, one[j%len(one)], chunk*walkChunk, mask)
						}
					}
				}
			})
		}
	}
}

// TestMatchRecordsClearFailedEvents corrupts one node and matches a
// batch of 100 in which events that reach it sit in both chunks: a
// failed event is named by no record — what it had matched on the way
// is cleared, and a record left with no event is dropped — while every
// other event's records expand to its rows on the intact store.
func TestMatchRecordsClearFailedEvents(t *testing.T) {
	c := walkCorpus{specs: []pubsub.SubscriptionSpec{
		spec(gt("volume", 5)),
		spec(between("price", 0, 100)),
		spec(between("price", 10, 20)), // the node to corrupt, under [0,100]
		spec(between("price", 12, 18)),
		spec(eq("symbol", "HAL")),
		spec(lt("price", 1000)),
	}}
	got, ref := c.build(t, newPlainAcc()), c.build(t, newPlainAcc())
	quote := func(e *Engine, symbol string, price float64, volume int64) *pubsub.Event {
		return event(t, e, map[string]pubsub.Value{"symbol": pubsub.Str(symbol), "price": pubsub.Float(price), "volume": pubsub.Int(volume)})
	}
	evs, refEvs := make([]*pubsub.Event, 100), make([]*pubsub.Event, 100)
	failing := make([]bool, 100)
	for i := range evs {
		price := 150.0 // pruned above the node by [0,100]
		if i%5 == 2 {
			price, failing[i] = 15, true
		}
		evs[i], refEvs[i] = quote(got, "HAL", price, 10), quote(ref, "HAL", price, 10)
	}

	node := got.subIndex[3]
	blob := got.acc.Read(node+nodeHeaderSize, int(got.readHeader(node).predLen))
	bad := append([]byte(nil), blob[:2+2]...) // count, attribute ID
	bad = append(bad, 1 /* string */, 0xFF, 0xFF)
	got.acc.Write(node+nodeHeaderSize, bad)

	recs := got.MatchRecords(evs, nil)
	checkRecords(t, "corrupt node", evs, recs)
	rows := make([][]MatchResult, len(evs))
	AppendRows(rows, recs)
	for i := range evs {
		var want []MatchResult
		if !failing[i] {
			var err error
			if want, err = ref.matchPerEvent(refEvs[i], nil, false); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("item %d matches nothing on the intact store; the test needs it to", i)
			}
		}
		if len(rows[i])+len(want) > 0 && !reflect.DeepEqual(rows[i], want) {
			t.Fatalf("item %d (failing %v): records expand to %s", i, failing[i], firstDiff(rows[i], want))
		}
	}
}
