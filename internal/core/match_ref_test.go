package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// matchPerEvent is the walk MatchAppend made before one walk carried a
// whole chunk of events: the general shard, then the shard of each
// event attribute in order, each forest walked for this one event. It
// is the reference the batch walk is held to — per event the same
// results in the same order, and at batch size 1 the same simulated
// counts.
func (e *Engine) matchPerEvent(ev *pubsub.Event, out []MatchResult) ([]MatchResult, error) {
	out, err := e.matchForestPerEvent(e.general, ev, out)
	if err != nil {
		return nil, err
	}
	for i := range ev.Attrs {
		sentinel, ok := e.shards[keyOf(ev.Attrs[i].ID, &ev.Attrs[i].Value)]
		if !ok {
			continue
		}
		if out, err = e.matchForestPerEvent(sentinel, ev, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *Engine) matchForestPerEvent(sentinel uint64, ev *pubsub.Event, out []MatchResult) ([]MatchResult, error) {
	h := e.readHeader(sentinel)
	if h.child == nilOff {
		return out, nil
	}
	stack := []uint64{h.child}
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nh := e.readHeader(off)
		if nh.sibling != nilOff {
			stack = append(stack, nh.sibling)
		}
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
			continue
		}
		for sub := nh.firstSub; sub != nilOff; {
			raw := e.acc.Read(sub, subRecordSize)
			out = append(out, MatchResult{SubID: leUint64(raw[8:]), ClientRef: leUint32(raw[16:])})
			sub = leUint64(raw[0:])
		}
		if nh.child != nilOff {
			stack = append(stack, nh.child)
		}
	}
	return out, nil
}

// matchDecoded is the walk Match made before it evaluated constraint
// blobs in place: decode every visited node's constraints into a
// []Constraint, test them in order, charge for the ones tested. It is
// the reference the property below holds Match to — same results, same
// simulated counts.
func (e *Engine) matchDecoded(ev *pubsub.Event) ([]MatchResult, error) {
	sentinels := []uint64{e.general}
	for _, attr := range ev.Attrs {
		key := shardKey{id: attr.ID}
		if attr.Value.Kind == pubsub.KindString {
			key.str, key.s = true, attr.Value.S
		} else {
			key.f = math.Float64bits(attr.Value.AsFloat())
		}
		if s, ok := e.shards[key]; ok {
			sentinels = append(sentinels, s)
		}
	}
	var out []MatchResult
	for _, sentinel := range sentinels {
		h := e.readHeader(sentinel)
		if h.child == nilOff {
			continue
		}
		stack := []uint64{h.child}
		for len(stack) > 0 {
			off := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nh := e.readHeader(off)
			if nh.sibling != nilOff {
				stack = append(stack, nh.sibling)
			}
			cs, err := e.decodeNode(off, nh)
			if err != nil {
				return nil, err
			}
			matched, evaluated := true, len(cs)
			for n := 1; n <= len(cs); n++ {
				if !(&pubsub.Subscription{Constraints: cs[:n]}).Matches(ev) {
					matched, evaluated = false, n
					break
				}
			}
			e.acc.Charge(uint64(evaluated) * e.acc.Meter().Cost.PredicateCycles)
			if !matched {
				continue
			}
			for sub := nh.firstSub; sub != nilOff; {
				raw := e.acc.Read(sub, subRecordSize)
				out = append(out, MatchResult{SubID: leUint64(raw[8:]), ClientRef: leUint32(raw[16:])})
				sub = leUint64(raw[0:])
			}
			if nh.child != nilOff {
				stack = append(stack, nh.child)
			}
		}
	}
	return out, nil
}

// TestMatchCountsEqualDecodedWalk builds each corpus twice over
// identical memory and matches one copy with Match and the other with
// the decoding reference walk: after every event the results are equal
// in order and the two meters agree on every counter — cycles, LLC
// hits and misses, faults, bytes read.
func TestMatchCountsEqualDecodedWalk(t *testing.T) {
	quote := func(symbol string, price float64, volume int64) map[string]pubsub.Value {
		return map[string]pubsub.Value{"symbol": pubsub.Str(symbol), "price": pubsub.Float(price), "volume": pubsub.Int(volume)}
	}
	type corpus struct {
		name   string
		specs  []pubsub.SubscriptionSpec
		events []map[string]pubsub.Value
	}
	// The PR 7 batch-equivalence and PR 8 repartition-equivalence corpora.
	corpora := []corpus{
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
	// The engine's own randomized equivalence corpus, with string
	// prefixes and int-valued events added.
	rng := rand.New(rand.NewSource(11))
	random := corpus{name: "random"}
	for i := 0; i < 1500; i++ {
		sp := randomSpec(rng)
		if i%7 == 0 {
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: "symbol", Op: pubsub.OpPrefix, Value: pubsub.Str([]string{"H", "IB", "MSFT"}[rng.Intn(3)])})
		}
		random.specs = append(random.specs, sp)
	}
	for i := 0; i < 200; i++ {
		attrs := map[string]pubsub.Value{
			"symbol": pubsub.Str([]string{"HAL", "IBM", "MSFT", "AAPL"}[rng.Intn(4)]),
			"price":  pubsub.Float(float64(rng.Intn(120) - 10)),
			"volume": pubsub.Int(int64(rng.Intn(120) - 10)),
			"open":   pubsub.Float(float64(rng.Intn(120) - 10)),
			"close":  pubsub.Float(float64(rng.Intn(120) - 10)),
		}
		if rng.Intn(5) == 0 {
			delete(attrs, "price")
		}
		random.events = append(random.events, attrs)
	}
	corpora = append(corpora, random)

	memories := map[string]func() simmem.Accessor{
		"plain": newPlainAcc,
		// An EPC of 16 pages under a store of ~40: the walk pages.
		"enclave-paging": func() simmem.Accessor { return launchTestEnclave(t, newTestDevice(t), 16*simmem.PageSize).Memory() },
	}
	for _, c := range corpora {
		for memName, newAcc := range memories {
			t.Run(c.name+"/"+memName, func(t *testing.T) {
				build := func() *Engine {
					e, err := NewEngine(newAcc(), pubsub.NewSchema(), Options{})
					if err != nil {
						t.Fatal(err)
					}
					for i, sp := range c.specs {
						sub, err := pubsub.Normalize(e.Schema(), sp)
						if err != nil {
							continue // unsatisfiable random spec
						}
						if _, err := e.RegisterNormalized(sub, uint32(i)); err != nil {
							t.Fatal(err)
						}
					}
					return e
				}
				got, ref := build(), build()
				if g, r := got.acc.Meter().C, ref.acc.Meter().C; g != r {
					t.Fatalf("identical builds disagree before matching: %+v vs %+v", g, r)
				}
				for i, attrs := range c.events {
					gotRes, err := got.Match(event(t, got, attrs))
					if err != nil {
						t.Fatal(err)
					}
					refRes, err := ref.matchDecoded(event(t, ref, attrs))
					if err != nil {
						t.Fatal(err)
					}
					if len(gotRes)+len(refRes) > 0 && !reflect.DeepEqual(gotRes, refRes) {
						t.Fatalf("event %d: Match %v, decoded walk %v", i, gotRes, refRes)
					}
					if g, r := got.acc.Meter().C, ref.acc.Meter().C; g != r {
						t.Fatalf("event %d: counters after Match %+v, after the decoded walk %+v", i, g, r)
					}
				}
				after := got.acc.Meter().C
				if after.Cycles == 0 || (memName == "enclave-paging" && c.name == "random" && after.PageFaults == 0) {
					t.Fatalf("corpus did not exercise the meter: %+v", after)
				}
			})
		}
	}
}
