package core

import (
	"encoding/binary"
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
// event attribute in order, each forest walked for this one event. The
// general shard is walked the way a chunk of this event's size walks it:
// from the root table when table is set (rootsPerEvent), as a lone event
// does, along the root chain when not. It is the reference the batch
// walk is held to — per event the same results in the same order, and
// at batch size 1 (table set) the same simulated counts.
func (e *Engine) matchPerEvent(ev *pubsub.Event, out []MatchResult, table bool) ([]MatchResult, error) {
	var err error
	if table {
		err = e.rootsPerEvent(ev, func(root uint64) error {
			out, err = e.matchTreePerEvent(root, false, ev, out)
			return err
		})
	} else {
		out, err = e.matchTreePerEvent(e.readHeader(e.general).child, true, ev, out)
	}
	if err != nil {
		return nil, err
	}
	for i := range ev.Attrs {
		sentinel, ok := e.shards[keyOf(ev.Attrs[i].ID, &ev.Attrs[i].Value)]
		if !ok {
			continue
		}
		if out, err = e.matchTreePerEvent(e.readHeader(sentinel).child, true, ev, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// matchTreePerEvent walks the subtree under start for ev alone, and
// when siblings is set the subtrees of start's later siblings too.
func (e *Engine) matchTreePerEvent(start uint64, siblings bool, ev *pubsub.Event, out []MatchResult) ([]MatchResult, error) {
	if start == nilOff {
		return out, nil
	}
	stack := []uint64{start}
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nh := e.readHeader(off)
		if nh.sibling != nilOff && (siblings || off != start) {
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

// rootsPerEvent is the general shard's table walk for ev alone, the
// reference walkRoots is held to at one event: every live entry, newest
// first, costs one predicate's cycles, and a root whose entry admits ev
// (entryAdmits) has its subtree walked by subtree, which stops the walk
// with the first error. The other roots are passed over, unread.
func (e *Engine) rootsPerEvent(ev *pubsub.Event, subtree func(root uint64) error) error {
	tests := uint64(0)
	var err error
	runs := e.rootRuns()
	for run := runs.next(); run != nil; run = runs.next() {
		for i := len(run) - rootEntrySize; i >= 0 && err == nil; i -= rootEntrySize {
			ent := run[i : i+rootEntrySize]
			if root := leUint64(ent); root != nilOff {
				if tests++; entryAdmits(ent, ev) {
					err = subtree(root)
				}
			}
		}
		if err != nil {
			break
		}
	}
	e.acc.Charge(tests * e.predCycles)
	return err
}

// entryAdmits decides from ev's attributes whether the root of table
// entry ent may match it: ev carries an attribute in every class (ID
// mod 32) of the entry's set and, where the entry has a summary, the
// first value ev gives the summary's attribute is a number not outside
// the entry's bounds.
func entryAdmits(ent []byte, ev *pubsub.Event) bool {
	var carried pubsub.AttrSet
	for _, a := range ev.Attrs {
		carried |= 1 << (a.ID % 32)
	}
	if pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offRootAttrs:]))&^carried != 0 {
		return false
	}
	if ent[offRootFlags]&rootSummary == 0 {
		return true
	}
	id := pubsub.AttrID(binary.LittleEndian.Uint16(ent[offRootAttr:]))
	for _, a := range ev.Attrs {
		if a.ID == id {
			if !a.Value.Numeric() {
				return false
			}
			f := a.Value.AsFloat()
			lo := math.Float64frombits(binary.LittleEndian.Uint64(ent[offRootLo:]))
			hi := math.Float64frombits(binary.LittleEndian.Uint64(ent[offRootHi:]))
			return !(f < lo || f > hi) // a NaN value or bound rules nothing out
		}
	}
	return false
}

// matchDecoded is the walk Match made before it evaluated constraint
// blobs in place: decode every visited node's constraints into a
// []Constraint, test them in order, charge for the ones tested. The
// general shard is walked from the root table, as a lone event walks
// it (rootsPerEvent). It is the reference the property below holds
// Match to — same results, same simulated counts.
func (e *Engine) matchDecoded(ev *pubsub.Event) ([]MatchResult, error) {
	var out []MatchResult
	walk := func(start uint64, siblings bool) error {
		stack := []uint64{start}
		for len(stack) > 0 {
			off := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nh := e.readHeader(off)
			if nh.sibling != nilOff && (siblings || off != start) {
				stack = append(stack, nh.sibling)
			}
			cs, err := e.decodeNode(off, nh)
			if err != nil {
				return err
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
		return nil
	}
	if err := e.rootsPerEvent(ev, func(root uint64) error { return walk(root, false) }); err != nil {
		return nil, err
	}
	var sentinels []uint64
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
	for _, sentinel := range sentinels {
		if h := e.readHeader(sentinel); h.child != nilOff {
			if err := walk(h.child, true); err != nil {
				return nil, err
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
