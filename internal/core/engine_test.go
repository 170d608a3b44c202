package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	acc := simmem.NewPlainAccessor(simmem.DefaultCost())
	e, err := NewEngine(acc, pubsub.NewSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func spec(preds ...pubsub.Predicate) pubsub.SubscriptionSpec {
	return pubsub.SubscriptionSpec{Predicates: preds}
}

func eq(attr, val string) pubsub.Predicate {
	return pubsub.Predicate{Attr: attr, Op: pubsub.OpEq, Value: pubsub.Str(val)}
}

func lt(attr string, v float64) pubsub.Predicate {
	return pubsub.Predicate{Attr: attr, Op: pubsub.OpLt, Value: pubsub.Float(v)}
}

func gt(attr string, v float64) pubsub.Predicate {
	return pubsub.Predicate{Attr: attr, Op: pubsub.OpGt, Value: pubsub.Float(v)}
}

func between(attr string, lo, hi float64) pubsub.Predicate {
	return pubsub.Predicate{Attr: attr, Op: pubsub.OpBetween, Value: pubsub.Float(lo), Hi: pubsub.Float(hi)}
}

func event(t *testing.T, e *Engine, attrs map[string]pubsub.Value) *pubsub.Event {
	t.Helper()
	ev, err := pubsub.NewEvent(e.Schema(), attrs)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func matchIDs(t *testing.T, e *Engine, ev *pubsub.Event) []uint64 {
	t.Helper()
	res, err := e.Match(ev)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(res))
	for i, m := range res {
		ids[i] = m.SubID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestPaperExampleSubscription(t *testing.T) {
	// 'symbol = "HAL" ∧ price < 50' from §3.2.
	e := newTestEngine(t)
	id, err := e.Register(spec(eq("symbol", "HAL"), lt("price", 50)), 1)
	if err != nil {
		t.Fatal(err)
	}
	hit := event(t, e, map[string]pubsub.Value{
		"symbol": pubsub.Str("HAL"), "price": pubsub.Float(49),
	})
	miss1 := event(t, e, map[string]pubsub.Value{
		"symbol": pubsub.Str("HAL"), "price": pubsub.Float(51),
	})
	miss2 := event(t, e, map[string]pubsub.Value{
		"symbol": pubsub.Str("IBM"), "price": pubsub.Float(49),
	})
	if got := matchIDs(t, e, hit); len(got) != 1 || got[0] != id {
		t.Fatalf("hit: got %v", got)
	}
	if got := matchIDs(t, e, miss1); len(got) != 0 {
		t.Fatalf("price miss matched: %v", got)
	}
	if got := matchIDs(t, e, miss2); len(got) != 0 {
		t.Fatalf("symbol miss matched: %v", got)
	}
}

func TestIdenticalSubscriptionsShareNode(t *testing.T) {
	e := newTestEngine(t)
	id1, err := e.Register(spec(eq("symbol", "HAL"), lt("price", 50)), 1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.Register(spec(eq("symbol", "HAL"), lt("price", 50)), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Subscriptions != 2 || st.Nodes != 1 {
		t.Fatalf("stats = %+v, want 2 subs on 1 node", st)
	}
	ev := event(t, e, map[string]pubsub.Value{
		"symbol": pubsub.Str("HAL"), "price": pubsub.Float(10),
	})
	if got := matchIDs(t, e, ev); len(got) != 2 || got[0] != id1 || got[1] != id2 {
		t.Fatalf("match = %v, want both ids", got)
	}
}

func TestCoveringPruning(t *testing.T) {
	// price>0 covers price>10 covers price>100. A deep containment
	// chain must form and match results stay exact.
	e := newTestEngine(t)
	ids := make([]uint64, 0, 3)
	for _, v := range []float64{0, 10, 100} {
		id, err := e.Register(spec(gt("price", v)), 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	shape := e.Shape()
	if shape.Roots != 1 || shape.MaxDepth != 3 {
		t.Fatalf("shape = %+v, want one chain of depth 3", shape)
	}
	ev5 := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(5)})
	if got := matchIDs(t, e, ev5); len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("price=5 matched %v, want only the >0 subscription %d", got, ids[0])
	}
	ev50 := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(50)})
	if got := matchIDs(t, e, ev50); len(got) != 2 {
		t.Fatalf("price=50 matched %v, want >0 and >10", got)
	}
	ev200 := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(200)})
	if got := matchIDs(t, e, ev200); len(got) != 3 {
		t.Fatalf("price=200 matched %v, want all 3", got)
	}
	evNeg := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(-1)})
	if got := matchIDs(t, e, evNeg); len(got) != 0 {
		t.Fatalf("price=-1 matched %v, want none", got)
	}
}

func TestReparentingOnInsert(t *testing.T) {
	// Insert specific first, then the general one: the general one
	// must adopt the specific as its child.
	e := newTestEngine(t)
	if _, err := e.Register(spec(gt("price", 100)), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(spec(gt("price", 10)), 1); err != nil {
		t.Fatal(err)
	}
	shape := e.Shape()
	if shape.Roots != 1 || shape.MaxDepth != 2 {
		t.Fatalf("shape = %+v, want root + child after re-parenting", shape)
	}
}

func TestUnregister(t *testing.T) {
	e := newTestEngine(t)
	id1, err := e.Register(spec(gt("price", 0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.Register(spec(gt("price", 10)), 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(20)})
	if got := matchIDs(t, e, ev); len(got) != 2 {
		t.Fatalf("before unregister: %v", got)
	}
	if err := e.Unregister(id1); err != nil {
		t.Fatal(err)
	}
	if got := matchIDs(t, e, ev); len(got) != 1 || got[0] != id2 {
		t.Fatalf("after unregister: %v", got)
	}
	// id2's node was a child of id1's node; the splice must keep it
	// reachable (checked above) and the engine consistent.
	if st := e.Stats(); st.Subscriptions != 1 || st.Nodes != 1 {
		t.Fatalf("stats after splice = %+v", st)
	}
	if err := e.Unregister(id1); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("double unregister: %v", err)
	}
	if err := e.Unregister(999); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("unknown unregister: %v", err)
	}
}

func TestUnregisterSharedNodeKeepsOthers(t *testing.T) {
	e := newTestEngine(t)
	id1, err := e.Register(spec(eq("symbol", "A")), 1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.Register(spec(eq("symbol", "A")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Unregister(id1); err != nil {
		t.Fatal(err)
	}
	ev := event(t, e, map[string]pubsub.Value{"symbol": pubsub.Str("A")})
	if got := matchIDs(t, e, ev); len(got) != 1 || got[0] != id2 {
		t.Fatalf("shared node lost surviving subscriber: %v", got)
	}
	if st := e.Stats(); st.Nodes != 1 {
		t.Fatalf("node count = %d, want 1 (node still has a subscriber)", st.Nodes)
	}
}

func TestShardingByEqualityAttribute(t *testing.T) {
	e := newTestEngine(t)
	// 100 symbols, one subscription each, plus one range-only sub.
	for i := 0; i < 100; i++ {
		sym := string(rune('A'+i%26)) + string(rune('A'+i/26))
		if _, err := e.Register(spec(eq("symbol", sym), lt("price", 50)), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Register(spec(gt("volume", 1000)), 200); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Shards != 101 {
		t.Fatalf("shards = %d, want 101 (100 symbols + general)", st.Shards)
	}
	ev := event(t, e, map[string]pubsub.Value{
		"symbol": pubsub.Str("AA"), "price": pubsub.Float(10), "volume": pubsub.Float(5000),
	})
	got := matchIDs(t, e, ev)
	if len(got) != 2 {
		t.Fatalf("expected symbol shard + general shard hits, got %v", got)
	}
}

// naiveStore duplicates registrations for brute-force comparison.
type naiveStore struct {
	subs map[uint64]*pubsub.Subscription
}

func (n *naiveStore) match(ev *pubsub.Event) []uint64 {
	var out []uint64
	for id, s := range n.subs {
		if s.Matches(ev) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randomSpec(rng *rand.Rand) pubsub.SubscriptionSpec {
	attrs := []string{"symbol", "price", "volume", "open", "close"}
	symbols := []string{"HAL", "IBM", "MSFT", "AAPL"}
	var preds []pubsub.Predicate
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			preds = append(preds, eq("symbol", symbols[rng.Intn(len(symbols))]))
		case 1:
			preds = append(preds, lt(attrs[1+rng.Intn(4)], float64(rng.Intn(100))))
		case 2:
			preds = append(preds, gt(attrs[1+rng.Intn(4)], float64(rng.Intn(100)-50)))
		case 3:
			lo := float64(rng.Intn(80))
			preds = append(preds, between(attrs[1+rng.Intn(4)], lo, lo+float64(1+rng.Intn(40))))
		default:
			preds = append(preds, pubsub.Predicate{
				Attr: attrs[1+rng.Intn(4)], Op: pubsub.OpEq, Value: pubsub.Float(float64(rng.Intn(50))),
			})
		}
	}
	return spec(preds...)
}

func randomEngineEvent(t *testing.T, rng *rand.Rand, e *Engine) *pubsub.Event {
	t.Helper()
	symbols := []string{"HAL", "IBM", "MSFT", "AAPL"}
	attrs := map[string]pubsub.Value{
		"symbol": pubsub.Str(symbols[rng.Intn(len(symbols))]),
		"price":  pubsub.Float(float64(rng.Intn(120) - 10)),
		"volume": pubsub.Float(float64(rng.Intn(120) - 10)),
		"open":   pubsub.Float(float64(rng.Intn(120) - 10)),
		"close":  pubsub.Float(float64(rng.Intn(120) - 10)),
	}
	if rng.Intn(5) == 0 {
		delete(attrs, "price")
	}
	return event(t, e, attrs)
}

// TestMatchEquivalentToNaiveScan is the core correctness property: the
// containment forest with pruning and sharding returns exactly the
// brute-force result set.
func TestMatchEquivalentToNaiveScan(t *testing.T) {
	e := newTestEngine(t)
	naive := &naiveStore{subs: make(map[uint64]*pubsub.Subscription)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		sp := randomSpec(rng)
		sub, err := pubsub.Normalize(e.Schema(), sp)
		if err != nil {
			continue
		}
		id, err := e.RegisterNormalized(sub, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		naive.subs[id] = sub
	}
	for i := 0; i < 300; i++ {
		ev := randomEngineEvent(t, rng, e)
		got := matchIDs(t, e, ev)
		want := naive.match(ev)
		if len(got) != len(want) {
			t.Fatalf("event %d: engine %d matches, naive %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("event %d: engine %v != naive %v", i, got, want)
			}
		}
	}
}

// TestMatchEquivalenceUnderChurn mixes registrations and removals.
func TestMatchEquivalenceUnderChurn(t *testing.T) {
	e := newTestEngine(t)
	naive := &naiveStore{subs: make(map[uint64]*pubsub.Subscription)}
	rng := rand.New(rand.NewSource(2))
	var live []uint64
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			if err := e.Unregister(id); err != nil {
				t.Fatal(err)
			}
			delete(naive.subs, id)
			continue
		}
		sub, err := pubsub.Normalize(e.Schema(), randomSpec(rng))
		if err != nil {
			continue
		}
		id, err := e.RegisterNormalized(sub, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		naive.subs[id] = sub
		live = append(live, id)

		if i%200 == 0 {
			ev := randomEngineEvent(t, rng, e)
			got := matchIDs(t, e, ev)
			want := naive.match(ev)
			if len(got) != len(want) {
				t.Fatalf("step %d: engine %v != naive %v", i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("step %d: engine %v != naive %v", i, got, want)
				}
			}
		}
	}
	if st := e.Stats(); st.Subscriptions != len(naive.subs) {
		t.Fatalf("live subs = %d, naive = %d", st.Subscriptions, len(naive.subs))
	}
}

func TestEngineInsideEnclaveEquivalent(t *testing.T) {
	// The same registrations against a plain accessor and an enclave
	// accessor must produce identical match results; the enclave run
	// must additionally charge MEE/transition costs.
	plainE := newTestEngine(t)

	dev := newTestDevice(t)
	encl := launchTestEnclave(t, dev, 32<<20)
	enclE, err := NewEngine(encl.Memory(), pubsub.NewSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	specs := make([]pubsub.SubscriptionSpec, 0, 500)
	for i := 0; i < 500; i++ {
		specs = append(specs, randomSpec(rng))
	}
	for i, sp := range specs {
		if _, err := plainE.Register(sp, uint32(i)); err != nil {
			if _, err2 := enclE.Register(sp, uint32(i)); err2 == nil {
				t.Fatalf("engines disagree on spec validity: %v vs nil", err)
			}
			continue
		}
		if _, err := enclE.Register(sp, uint32(i)); err != nil {
			t.Fatalf("enclave engine rejected valid spec: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		attrs := map[string]pubsub.Value{
			"symbol": pubsub.Str([]string{"HAL", "IBM", "MSFT", "AAPL"}[rng.Intn(4)]),
			"price":  pubsub.Float(float64(rng.Intn(120) - 10)),
			"volume": pubsub.Float(float64(rng.Intn(120) - 10)),
			"open":   pubsub.Float(float64(rng.Intn(120) - 10)),
			"close":  pubsub.Float(float64(rng.Intn(120) - 10)),
		}
		evPlain, err := pubsub.NewEvent(plainE.Schema(), attrs)
		if err != nil {
			t.Fatal(err)
		}
		evEncl, err := pubsub.NewEvent(enclE.Schema(), attrs)
		if err != nil {
			t.Fatal(err)
		}
		a, err := plainE.Match(evPlain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := enclE.Match(evEncl)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("event %d: plain %d matches, enclave %d", i, len(a), len(b))
		}
	}
}

func TestPadRecordTo(t *testing.T) {
	acc := simmem.NewPlainAccessor(simmem.DefaultCost())
	e, err := NewEngine(acc, pubsub.NewSchema(), Options{PadRecordTo: 400})
	if err != nil {
		t.Fatal(err)
	}
	before := acc.Size()
	if _, err := e.Register(spec(eq("symbol", "HAL")), 1); err != nil {
		t.Fatal(err)
	}
	grew := acc.Size() - before
	// Node (400, its subscriber in its header) + shard sentinel (400).
	if grew != 800 {
		t.Fatalf("arena grew %d bytes, want 800 with padding", grew)
	}
	// A second identical subscription adds a subscriber record only.
	before = acc.Size()
	if _, err := e.Register(spec(eq("symbol", "HAL")), 2); err != nil {
		t.Fatal(err)
	}
	if grew := acc.Size() - before; grew != subRecordSize {
		t.Fatalf("a shared node's second subscriber grew the arena %d bytes, want %d", grew, subRecordSize)
	}
}

func TestMatchChargesCycles(t *testing.T) {
	e := newTestEngine(t)
	for i := 0; i < 100; i++ {
		if _, err := e.Register(spec(gt("price", float64(i))), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(50)})
	before := e.Accessor().Meter().C
	if _, err := e.Match(ev); err != nil {
		t.Fatal(err)
	}
	delta := e.Accessor().Meter().C.Sub(before)
	if delta.Cycles == 0 || delta.BytesRead == 0 {
		t.Fatalf("match charged nothing: %+v", delta)
	}
}

func TestEmptyEngineMatches(t *testing.T) {
	e := newTestEngine(t)
	ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(1)})
	got, err := e.Match(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty engine matched %v", got)
	}
}

func TestRegisterRejectsBadSpec(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Register(pubsub.SubscriptionSpec{}, 1); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := e.Register(spec(gt("x", 5), lt("x", 1)), 1); err == nil {
		t.Fatal("unsatisfiable spec accepted")
	}
}

func TestDisableShardingEquivalence(t *testing.T) {
	acc := simmem.NewPlainAccessor(simmem.DefaultCost())
	mono, err := NewEngine(acc, pubsub.NewSchema(), Options{DisableSharding: true})
	if err != nil {
		t.Fatal(err)
	}
	sharded := newTestEngine(t)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1500; i++ {
		sp := randomSpec(rng)
		if _, err := mono.Register(sp, uint32(i)); err != nil {
			continue
		}
		if _, err := sharded.Register(sp, uint32(i)); err != nil {
			t.Fatalf("engines disagree on validity: %v", err)
		}
	}
	if st := mono.Stats(); st.Shards != 1 {
		t.Fatalf("sharding not disabled: %+v", st)
	}
	for i := 0; i < 150; i++ {
		attrs := map[string]pubsub.Value{
			"symbol": pubsub.Str([]string{"HAL", "IBM", "MSFT", "AAPL"}[rng.Intn(4)]),
			"price":  pubsub.Float(float64(rng.Intn(120) - 10)),
			"volume": pubsub.Float(float64(rng.Intn(120) - 10)),
			"open":   pubsub.Float(float64(rng.Intn(120) - 10)),
			"close":  pubsub.Float(float64(rng.Intn(120) - 10)),
		}
		evMono, err := pubsub.NewEvent(mono.Schema(), attrs)
		if err != nil {
			t.Fatal(err)
		}
		evSharded, err := pubsub.NewEvent(sharded.Schema(), attrs)
		if err != nil {
			t.Fatal(err)
		}
		a, err := mono.Match(evMono)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Match(evSharded)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("event %d: mono %d matches, sharded %d", i, len(a), len(b))
		}
	}
}
