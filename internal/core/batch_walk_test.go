package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// walkCorpus is a database built by a fixed sequence of registrations
// and removals, and the events matched against it.
type walkCorpus struct {
	name  string
	specs []pubsub.SubscriptionSpec
	// drop[i] = j removes the subscription registered from specs[j]
	// right after specs[i] is registered.
	drop   map[int]int
	events []map[string]pubsub.Value
}

// build replays the corpus into a fresh engine over acc, holding the
// root table to the root chain after every operation. Two builds over
// identical memory give identical stores, subscription IDs included.
func (c *walkCorpus) build(t *testing.T, acc simmem.Accessor) *Engine {
	t.Helper()
	e, err := NewEngine(acc, pubsub.NewSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(c.specs))
	for i, sp := range c.specs {
		if sub, err := pubsub.Normalize(e.Schema(), sp); err == nil { // else: unsatisfiable random spec
			if ids[i], err = e.RegisterNormalized(sub, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		checkRootTable(t, e, accRead(e))
		if j, ok := c.drop[i]; ok && ids[j] != 0 {
			if err := e.Unregister(ids[j]); err != nil {
				t.Fatal(err)
			}
			ids[j] = 0
			checkRootTable(t, e, accRead(e))
		}
	}
	return e
}

// walkCorpora returns the PR 7 batch-equivalence and PR 8
// repartition-equivalence corpora and a random one drawn from seed:
// string equalities and prefixes, numeric equalities and bands,
// subscriptions registered twice (sharing a node), chains of bands
// each covering the next, and removals interleaved with the
// registrations — some of covering nodes, whose children re-attach.
func walkCorpora(seed int64) []walkCorpus {
	quote := func(symbol string, price float64, volume int64) map[string]pubsub.Value {
		return map[string]pubsub.Value{"symbol": pubsub.Str(symbol), "price": pubsub.Float(price), "volume": pubsub.Int(volume)}
	}
	corpora := []walkCorpus{
		{
			name: "batch-equivalence",
			specs: []pubsub.SubscriptionSpec{
				spec(eq("symbol", "HAL"), lt("price", 50)),
				spec(eq("symbol", "HAL"), lt("price", 100)),
				spec(gt("volume", 500)),
			},
			events: []map[string]pubsub.Value{
				quote("HAL", 42, 100), quote("HAL", 75, 100), quote("IBM", 42, 100),
				quote("HAL", 120, 9000), quote("HAL", 10, 8000), quote("HAL", 1, 9999),
			},
		},
		{
			name:  "repartition-equivalence",
			specs: []pubsub.SubscriptionSpec{spec(eq("symbol", "HAL"), lt("price", 50)), spec(eq("symbol", "HAL"), lt("price", 80))},
		},
	}
	for _, p := range []float64{10, 25, 40, 55, 70, 85} {
		corpora[1].events = append(corpora[1].events, quote("HAL", p, 1000))
	}

	rng := rand.New(rand.NewSource(seed))
	symbols := []string{"HAL", "IBM", "MSFT", "AAPL", "HALO"}
	numeric := []string{"price", "volume", "open", "close"}
	random := walkCorpus{name: "random", drop: make(map[int]int)}
	for len(random.specs) < 1500 {
		n := len(random.specs)
		switch pick := rng.Intn(10); {
		case pick == 0 && n > 0:
			random.specs = append(random.specs, random.specs[rng.Intn(n)]) // a second subscriber on one node
		case pick == 1:
			// A chain of bands, widest first or last: deep covers, and
			// re-parenting when the coverer arrives after the covered.
			attr, mid := numeric[rng.Intn(len(numeric))], float64(10+rng.Intn(80))
			var chain []pubsub.SubscriptionSpec
			for w := float64(2 + rng.Intn(4)); w < 60; w *= 2 {
				sp := spec(between(attr, mid-w, mid+w))
				if rng.Intn(3) == 0 {
					sp.Predicates = append(sp.Predicates, eq("symbol", symbols[rng.Intn(len(symbols))]))
				}
				chain = append(chain, sp)
			}
			if rng.Intn(2) == 0 {
				for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
					chain[i], chain[j] = chain[j], chain[i]
				}
			}
			random.specs = append(random.specs, chain...)
		case pick == 2:
			sp := randomSpec(rng)
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: "symbol", Op: pubsub.OpPrefix, Value: pubsub.Str([]string{"H", "HAL", "IB", "MSFT"}[rng.Intn(4)])})
			random.specs = append(random.specs, sp)
		default:
			random.specs = append(random.specs, randomSpec(rng))
		}
		if n > 20 && rng.Intn(6) == 0 {
			random.drop[len(random.specs)-1] = rng.Intn(n)
		}
	}
	for i := 0; i < 200; i++ {
		attrs := map[string]pubsub.Value{
			"symbol": pubsub.Str(symbols[rng.Intn(len(symbols))]),
			"price":  pubsub.Float(float64(rng.Intn(120) - 10)),
			"volume": pubsub.Int(int64(rng.Intn(120) - 10)),
			"open":   pubsub.Float(float64(rng.Intn(120) - 10)),
			"close":  pubsub.Float(float64(rng.Intn(120) - 10)),
		}
		if rng.Intn(5) == 0 {
			delete(attrs, numeric[rng.Intn(len(numeric))])
		}
		random.events = append(random.events, attrs)
	}
	return append(corpora, random)
}

// firstDiff describes where two result slices part, for failure
// messages that would otherwise print hundreds of matches.
func firstDiff(got, want []MatchResult) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("%d results vs %d, first difference at %d: %v vs %v", len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
}

// lookups is the number of cache lines the model looked up.
func lookups(c simmem.Counters) uint64 { return c.LLCHits + c.LLCMisses }

// TestBatchWalkEqualsPerEventWalk holds the one walk per chunk to the
// walk per event it replaced (matchPerEvent), on two stores built
// identically over identical memory:
//
//   - one event at a time, every result and every simulated counter is
//     equal after every event;
//   - at every batch size, with nil holes and non-empty slots, each
//     event's slot is its prefix plus the per-event walk's results,
//     element for element, and the batch reads no more bytes than the
//     per-event walks together;
//   - n copies of one event cost one event's bytes and line lookups per
//     chunk of 64;
//   - with memory free (no cycles per hit, miss or fault), a batch costs
//     exactly the per-event walks' cycles: predicate cycles are charged
//     per event evaluated, never amortised.
func TestBatchWalkEqualsPerEventWalk(t *testing.T) {
	freeMemory := simmem.DefaultCost()
	freeMemory.LLCHitCycles, freeMemory.DRAMCycles, freeMemory.MEECycles = 0, 0, 0
	memories := []struct {
		name string
		new  func(t *testing.T) simmem.Accessor
	}{
		{"plain", func(*testing.T) simmem.Accessor { return newPlainAcc() }},
		// An EPC of 16 pages under a store of ~40: the walk pages.
		{"enclave-paging", func(t *testing.T) simmem.Accessor {
			return launchTestEnclave(t, newTestDevice(t), 16*simmem.PageSize).Memory()
		}},
		{"free-memory", func(*testing.T) simmem.Accessor {
			acc := simmem.NewPlainAccessor(freeMemory)
			acc.Meter().SetPager(nil)
			return acc
		}},
	}
	sizes := []int{1, 2, 31, 64, 65, 200}
	for _, seed := range []int64{19, 20} {
		for _, c := range walkCorpora(seed) {
			if seed != 19 && c.name != "random" {
				continue // the fixed corpora do not depend on the seed
			}
			for _, mem := range memories {
				t.Run(fmt.Sprintf("%s/seed=%d/%s", c.name, seed, mem.name), func(t *testing.T) {
					got, ref := c.build(t, mem.new(t)), c.build(t, mem.new(t))
					gotC, refC := &got.acc.Meter().C, &ref.acc.Meter().C
					if *gotC != *refC {
						t.Fatalf("seed %d: identical builds disagree before matching: %+v vs %+v", seed, *gotC, *refC)
					}
					// refOf maps an event of got's schema to the same event
					// interned by ref's.
					events, refOf := make([]*pubsub.Event, len(c.events)), make(map[*pubsub.Event]*pubsub.Event)
					for i, attrs := range c.events {
						events[i] = event(t, got, attrs)
						refOf[events[i]] = event(t, ref, attrs)
					}

					// Batch size 1, through both entry points.
					for i, ev := range events {
						var gotRes []MatchResult
						var err error
						if i%2 == 0 {
							gotRes, err = got.MatchAppend(ev, nil)
						} else {
							slot := make([][]MatchResult, 1)
							err = got.MatchAppendBatch([]*pubsub.Event{ev}, slot)
							gotRes = slot[0]
						}
						if err != nil {
							t.Fatal(err)
						}
						refRes, err := ref.matchPerEvent(refOf[ev], nil)
						if err != nil {
							t.Fatal(err)
						}
						if len(gotRes)+len(refRes) > 0 && !reflect.DeepEqual(gotRes, refRes) {
							t.Fatalf("seed %d event %d: walk vs per-event walk: %s", seed, i, firstDiff(gotRes, refRes))
						}
						if *gotC != *refC {
							t.Fatalf("seed %d event %d: counters %+v, after the per-event walk %+v", seed, i, *gotC, *refC)
						}
					}
					if gotC.Cycles == 0 || (mem.name == "enclave-paging" && c.name == "random" && gotC.PageFaults == 0) {
						t.Fatalf("seed %d: corpus did not exercise the meter: %+v", seed, *gotC)
					}

					rng := rand.New(rand.NewSource(seed))
					prefix := []MatchResult{{SubID: ^uint64(0), ClientRef: 7}}
					for _, n := range sizes {
						evs := make([]*pubsub.Event, n)
						out := make([][]MatchResult, n)
						prefixed := make([]bool, n)
						for i := range evs {
							if n > 1 && rng.Intn(6) == 0 {
								continue // a dropped item keeps its slot
							}
							evs[i] = events[rng.Intn(len(events))]
							if prefixed[i] = rng.Intn(2) == 0; prefixed[i] {
								out[i] = append(out[i], prefix...)
							}
						}
						before, refBefore := *gotC, *refC
						if err := got.MatchAppendBatch(evs, out); err != nil {
							t.Fatal(err)
						}
						for i, ev := range evs {
							if ev == nil {
								if out[i] != nil {
									t.Fatalf("seed %d batch %d: nil item %d was given %v", seed, n, i, out[i])
								}
								continue
							}
							var want []MatchResult
							if prefixed[i] {
								want = append(want, prefix...)
							}
							want, err := ref.matchPerEvent(refOf[ev], want)
							if err != nil {
								t.Fatal(err)
							}
							if len(out[i])+len(want) > 0 && !reflect.DeepEqual(out[i], want) {
								t.Fatalf("seed %d batch %d item %d: walk vs per-event walk: %s", seed, n, i, firstDiff(out[i], want))
							}
						}
						d, refD := gotC.Sub(before), refC.Sub(refBefore)
						if d.BytesRead > refD.BytesRead {
							t.Fatalf("seed %d batch %d: read %d bytes, the per-event walks %d", seed, n, d.BytesRead, refD.BytesRead)
						}
						if mem.name == "free-memory" && d.Cycles != refD.Cycles {
							t.Fatalf("seed %d batch %d: %d cycles with memory free, the per-event walks %d", seed, n, d.Cycles, refD.Cycles)
						}

						// n copies of one event: one walk per chunk.
						ev := events[rng.Intn(len(events))]
						for i := range evs {
							evs[i], out[i] = ev, out[i][:0]
						}
						before, refBefore = *gotC, *refC
						if err := got.MatchAppendBatch(evs, out); err != nil {
							t.Fatal(err)
						}
						want, err := ref.matchPerEvent(refOf[ev], nil)
						if err != nil {
							t.Fatal(err)
						}
						for i := range out {
							if len(out[i])+len(want) > 0 && !reflect.DeepEqual(out[i], want) {
								t.Fatalf("seed %d batch %d copy %d: walk vs per-event walk: %s", seed, n, i, firstDiff(out[i], want))
							}
						}
						d, refD = gotC.Sub(before), refC.Sub(refBefore)
						chunks := uint64((n + walkChunk - 1) / walkChunk)
						if d.BytesRead != chunks*refD.BytesRead || lookups(d) != chunks*lookups(refD) {
							t.Fatalf("seed %d: %d copies of one event read %d bytes in %d line lookups, one event %d in %d (×%d chunks)",
								seed, n, d.BytesRead, lookups(d), refD.BytesRead, lookups(refD), chunks)
						}
					}
				})
			}
		}
	}
}

// TestBatchWalkIsolatesFailedEvents corrupts one node's constraint blob
// in the arena and matches batches in which some events reach the node
// and some are pruned above it: an event that reaches it contributes
// nothing — what it had collected on the way is taken back, and its
// later shards are not walked — every other event's slot is what it
// would be on an intact store, and nothing of the failure survives into
// the next batch.
func TestBatchWalkIsolatesFailedEvents(t *testing.T) {
	c := walkCorpus{specs: []pubsub.SubscriptionSpec{
		spec(gt("volume", 5)),
		spec(between("price", 0, 100)),
		spec(between("price", 10, 20)), // the node to corrupt, under [0,100]
		spec(between("price", 12, 18)),
		spec(between("price", 0, 100), gt("volume", 50)),
		spec(eq("symbol", "HAL")),
		spec(eq("symbol", "HAL"), lt("price", 500)),
		spec(lt("price", 1000)),
	}}
	got, ref := c.build(t, newPlainAcc()), c.build(t, newPlainAcc())
	refOf := make(map[*pubsub.Event]*pubsub.Event) // the same event, interned by ref's schema
	quote := func(symbol string, price float64, volume int64) *pubsub.Event {
		attrs := map[string]pubsub.Value{"symbol": pubsub.Str(symbol), "price": pubsub.Float(price), "volume": pubsub.Int(volume)}
		ev := event(t, got, attrs)
		refOf[ev] = event(t, ref, attrs)
		return ev
	}
	inside := []*pubsub.Event{quote("HAL", 15, 100), quote("IBM", 50, 1), quote("HAL", 99, 60)} // pass [0,100]: reach the node
	outside := []*pubsub.Event{quote("HAL", 150, 10), quote("IBM", 101, 0), quote("HAL", 400, 77)}
	var evs []*pubsub.Event
	for i := range inside {
		evs = append(evs, inside[i], nil, outside[i])
	}
	prefix := []MatchResult{{SubID: 1 << 40, ClientRef: 9}}
	match := func(evs []*pubsub.Event) [][]MatchResult {
		out := make([][]MatchResult, len(evs))
		for i := range out {
			if i%2 == 0 {
				out[i] = append(out[i], prefix...)
			}
		}
		if err := got.MatchAppendBatch(evs, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(what string, evs []*pubsub.Event, out [][]MatchResult, failed map[*pubsub.Event]bool) {
		t.Helper()
		for i, ev := range evs {
			var want []MatchResult
			if i%2 == 0 {
				want = append(want, prefix...)
			}
			if ev != nil && !failed[ev] {
				base := len(want)
				var err error
				if want, err = ref.matchPerEvent(refOf[ev], want); err != nil {
					t.Fatal(err)
				}
				if len(want) == base {
					t.Fatalf("%s: item %d matches nothing on the intact store; the test needs it to", what, i)
				}
			}
			if len(out[i])+len(want) > 0 && !reflect.DeepEqual(out[i], want) {
				t.Fatalf("%s: item %d got %v, want %v", what, i, out[i], want)
			}
		}
	}
	check("intact store", evs, match(evs), nil)

	// Make the node's one constraint a string test that claims 65,535
	// bytes: evaluating it on any event that carries a price runs off
	// the blob.
	node := got.subIndex[3]
	blob := append([]byte(nil), got.acc.Read(node+nodeHeaderSize, int(got.readHeader(node).predLen))...)
	bad := append([]byte(nil), blob[:2+2]...) // count, attribute ID
	bad = append(bad, 1 /* string */, 0xFF, 0xFF)
	got.acc.Write(node+nodeHeaderSize, bad)

	// Alone, such an event fails where the per-event walk failed, having
	// read exactly as much.
	ref.acc.Write(node+nodeHeaderSize, bad)
	failed := make(map[*pubsub.Event]bool)
	for _, ev := range inside {
		failed[ev] = true
		before, refBefore := got.acc.Meter().C, ref.acc.Meter().C
		if res, err := got.MatchAppend(ev, prefix); err == nil || res != nil {
			t.Fatalf("MatchAppend through the corrupt node = %v, %v; want an error", res, err)
		}
		if _, err := ref.matchPerEvent(refOf[ev], nil); err == nil {
			t.Fatal("the per-event walk passed the corrupt node")
		}
		d, refD := got.acc.Meter().C.Sub(before), ref.acc.Meter().C.Sub(refBefore)
		if d.BytesRead != refD.BytesRead || lookups(d) != lookups(refD) {
			t.Fatalf("failing walk read %d bytes in %d line lookups, the per-event walk %d in %d", d.BytesRead, lookups(d), refD.BytesRead, lookups(refD))
		}
	}
	ref.acc.Write(node+nodeHeaderSize, blob)
	check("corrupt node", evs, match(evs), failed)
	check("corrupt node, events pruned above it only", outside, match(outside), nil)

	got.acc.Write(node+nodeHeaderSize, blob)
	check("repaired store", evs, match(evs), nil)
}
