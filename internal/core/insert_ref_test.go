package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// decodeNode decodes the node's constraint blob (nil for a node stored
// without one), reading it through the accessor as the engine does.
func (e *Engine) decodeNode(off uint64, h nodeHeader) ([]pubsub.Constraint, error) {
	if h.predLen == 0 {
		return nil, nil
	}
	cs, _, err := pubsub.DecodeConstraints(e.acc.Read(off+nodeHeaderSize, int(h.predLen)))
	if err != nil {
		return nil, fmt.Errorf("core: corrupt node at %d: %w", off, err)
	}
	return cs, nil
}

// insertRef is the insert the engine made before one pass per level:
// walk the children of each level decoding every blob until one covers
// the newcomer, and at the last level walk the children a second time,
// decoding again, to collect the ones the newcomer covers. It scans
// every level along its chain, tabled or not, and then attaches as
// insert does — which keeps the tables — so it is the reference the
// one-pass, table-scanning insert is held to: the same forest and the
// same arena bytes after every operation. Like insert, it gives the node
// it returns subscriber subID of clientRef: a shared node in a
// subscriber record, a new one in its header.
func (e *Engine) insertRef(sentinel uint64, sub *pubsub.Subscription, subID uint64, clientRef uint32) (uint64, error) {
	cur := sentinel
	for {
		curH := e.readHeader(cur)
		var coverer uint64 = nilOff
		child := curH.child
		for child != nilOff {
			ch := e.readHeader(child)
			cs, err := e.decodeNode(child, ch)
			if err != nil {
				return 0, err
			}
			childSub := pubsub.Subscription{Constraints: cs}
			e.chargeCompare(len(cs))
			if childSub.Covers(sub) {
				if sub.Covers(&childSub) {
					// Identical constraints: share the node.
					return child, e.addSubscriber(child, subID, clientRef)
				}
				coverer = child
				break
			}
			child = ch.sibling
		}
		if coverer == nilOff {
			break
		}
		cur = coverer
	}

	e.moved = e.moved[:0]
	curH := e.readHeader(cur)
	child := curH.child
	for e.width = 0; child != nilOff; e.width++ {
		ch := e.readHeader(child)
		cs, err := e.decodeNode(child, ch)
		if err != nil {
			return 0, err
		}
		e.chargeCompare(len(sub.Constraints))
		if sub.Covers(&pubsub.Subscription{Constraints: cs}) {
			e.moved = append(e.moved, child)
		}
		child = ch.sibling
	}
	return e.attach(cur, sub, subID, clientRef)
}

// registerRef is RegisterNormalized with insertRef in place of insert.
func (e *Engine) registerRef(sub *pubsub.Subscription, clientRef uint32) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextSubID++
	id := e.nextSubID
	sentinel, err := e.shardFor(sub)
	if err != nil {
		return 0, err
	}
	nodeOff, err := e.insertRef(sentinel, sub, id, clientRef)
	if err != nil {
		return 0, err
	}
	e.subIndex[id] = nodeOff
	return id, nil
}

// shadowAcc keeps a copy of every byte written through it, so a test can
// compare two arenas without a metered read.
type shadowAcc struct {
	simmem.Accessor
	mem []byte
}

func (s *shadowAcc) Write(off uint64, b []byte) {
	s.Accessor.Write(off, b)
	if end := int(off) + len(b); end > len(s.mem) {
		s.mem = append(s.mem, make([]byte, end-len(s.mem))...)
	}
	copy(s.mem[off:], b)
}

// forestDump walks every shard, reading the shadow copy so the meter
// is not touched, and lists each node as offset, parent, child and
// sibling links, then its subscription IDs — its list's, then its own —
// then nilOff.
func forestDump(e *Engine, mem []byte) []uint64 {
	var out []uint64
	var walk func(off uint64)
	walk = func(off uint64) {
		h := decodeHeader(mem[off:])
		out = append(out, off, h.parent, h.child, h.sibling)
		for s := h.firstSub; s != nilOff; s = leUint64(mem[s:]) {
			out = append(out, leUint64(mem[s+8:]))
		}
		if h.flags&flagOwnSub != 0 {
			out = append(out, h.ownID)
		}
		out = append(out, nilOff)
		for c := h.child; c != nilOff; c = decodeHeader(mem[c:]).sibling {
			walk(c)
		}
	}
	sentinels := []uint64{e.general}
	for _, s := range e.shards {
		sentinels = append(sentinels, s)
	}
	slices.Sort(sentinels[1:])
	for _, s := range sentinels {
		walk(s)
	}
	return out
}

// insertSpec draws from the benchmark's quote mix (symbol equality, a
// price band, symbol plus a volume band) and from randomSpec extended
// with string equality on a second attribute, prefixes, and bounds open
// or closed on either side — so siblings cover, are covered, are equal
// and are unrelated in every shape the codec has.
func insertSpec(rng *rand.Rand) pubsub.SubscriptionSpec {
	symbol := func() pubsub.Value {
		return pubsub.Str([]string{"HAL", "HALO", "IBM", "MSFT", "AAPL", ""}[rng.Intn(6)])
	}
	switch rng.Intn(6) {
	case 0:
		return spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: symbol()})
	case 1:
		lo := float64(rng.Intn(90))
		return spec(between("price", lo, lo+float64(1+rng.Intn(20))))
	case 2:
		return spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: symbol()},
			between("volume", float64(rng.Intn(50)), 100))
	}
	sp := randomSpec(rng)
	for n := rng.Intn(3); n > 0; n-- {
		attr := []string{"price", "volume", "open", "close"}[rng.Intn(4)]
		v := pubsub.Float(float64(rng.Intn(60)))
		switch rng.Intn(6) {
		case 0:
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: "symbol", Op: pubsub.OpPrefix, Value: pubsub.Str([]string{"", "H", "HA", "HAL", "IB"}[rng.Intn(5)])})
		case 1:
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: "venue", Op: pubsub.OpEq, Value: pubsub.Str([]string{"X", "Y"}[rng.Intn(2)])})
		case 2:
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: attr, Op: pubsub.OpGe, Value: v})
		case 3:
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: attr, Op: pubsub.OpLe, Value: v})
		case 4:
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: attr, Op: pubsub.OpGt, Value: v})
		default:
			sp.Predicates = append(sp.Predicates, pubsub.Predicate{Attr: attr, Op: pubsub.OpLt, Value: v})
		}
	}
	return sp
}

// TestInsertEqualsReference drives twin engines — one inserting with
// insert, one with insertRef — through the same random register and
// unregister sequence, after widePrelude's broad band for odd seeds.
// After every operation they return the same IDs,
// hold the same forest link for link, have byte-identical arenas and
// tables equal to their child chains, and the one-pass insert has
// looked up no more cache lines than the reference. Both twins
// normalise every spec, so their schemas intern the same names even
// when a spec is unsatisfiable.
func TestInsertEqualsReference(t *testing.T) {
	for _, opts := range []Options{{}, {DisableSharding: true}, {CacheAlign: true}, {PadRecordTo: 300}} {
		for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
			t.Run(fmt.Sprintf("%+v/seed=%d", opts, seed), func(t *testing.T) {
				newTwin := func() (*Engine, *shadowAcc) {
					acc := &shadowAcc{Accessor: newPlainAcc()}
					e, err := NewEngine(acc, pubsub.NewSchema(), opts)
					if err != nil {
						t.Fatal(err)
					}
					return e, acc
				}
				got, gotMem := newTwin()
				ref, refMem := newTwin()
				rng := rand.New(rand.NewSource(seed))
				// Odd seeds start from a broad band over tableMin-1 to
				// tableMin+1 narrower ones.
				var prelude []pubsub.SubscriptionSpec
				if seed%2 == 1 {
					prelude = widePrelude(&scriptReader{b: []byte{byte(seed / 2)}})
				}
				var live []uint64
				for step := 0; step < 1500; step++ {
					op := "unregister"
					if step >= len(prelude) && len(live) > 0 && rng.Intn(4) == 0 {
						k := rng.Intn(len(live))
						errG, errR := got.Unregister(live[k]), ref.Unregister(live[k])
						if errG != nil || errR != nil {
							t.Fatalf("seed %d step %d: unregister %d: %v / %v", seed, step, live[k], errG, errR)
						}
						live = append(live[:k], live[k+1:]...)
					} else {
						sp := insertSpec(rng)
						if step < len(prelude) {
							sp = prelude[step]
						}
						op = fmt.Sprintf("register %+v", sp.Predicates)
						// Both twins normalise, so both schemas intern the
						// same names, whether or not the spec is satisfiable.
						subG, errG := pubsub.Normalize(got.Schema(), sp)
						subR, errR := pubsub.Normalize(ref.Schema(), sp)
						if (errG == nil) != (errR == nil) || (errG != nil && errG.Error() != errR.Error()) {
							t.Fatalf("seed %d step %d: %s: normalising gives %v / %v", seed, step, op, errG, errR)
						}
						if errG != nil {
							continue // unsatisfiable conjunction
						}
						idG, errG := got.RegisterNormalized(subG, uint32(step))
						idR, errR := ref.registerRef(subR, uint32(step))
						if errG != nil || errR != nil || idG != idR {
							t.Fatalf("seed %d step %d: %s: IDs %d / %d, errors %v / %v", seed, step, op, idG, idR, errG, errR)
						}
						live = append(live, idG)
					}
					if !bytes.Equal(gotMem.mem, refMem.mem) {
						t.Fatalf("seed %d step %d: %s: arenas differ", seed, step, op)
					}
					if g, r := lookups(got.acc.Meter().C), lookups(ref.acc.Meter().C); g > r {
						t.Fatalf("seed %d step %d: %s: %d line lookups, reference %d", seed, step, op, g, r)
					}
					if !reflect.DeepEqual(got.shards, ref.shards) || !reflect.DeepEqual(got.subIndex, ref.subIndex) || got.nodesLive != ref.nodesLive {
						t.Fatalf("seed %d step %d: %s: shard, subscription or node index differs", seed, step, op)
					}
					if g, r := forestDump(got, gotMem.mem), forestDump(ref, refMem.mem); !slices.Equal(g, r) {
						t.Fatalf("seed %d step %d: %s: forests differ:\n%v\nreference:\n%v", seed, step, op, g, r)
					}
					checkTables(t, got, memRead(gotMem.mem))
					checkTables(t, ref, memRead(refMem.mem))
				}
				if g, r := lookups(got.acc.Meter().C), lookups(ref.acc.Meter().C); g >= r {
					t.Fatalf("seed %d: the one-pass insert looked up %d lines, the reference %d", seed, g, r)
				}
			})
		}
	}
}

// TestInsertCorruptSibling: a root whose blob is truncated fails the
// insert that must read it — one its table entry cannot rule out, here
// a band it covers — with a corrupt-node error, before anything is
// allocated. A root whose entry rules it out is not read: an unrelated
// insert succeeds, and the match walk still reports the corrupt node.
func TestInsertCorruptSibling(t *testing.T) {
	for _, cut := range []int{1, 3, 4, 13, 20} { // the band's blob is 21 bytes
		cutRoot := func() *Engine {
			e := newTestEngine(t)
			if _, err := e.Register(spec(between("price", 10, 20)), 1); err != nil {
				t.Fatal(err)
			}
			root := e.readHeader(e.general).child
			// Shrink the stored length: the blob now ends mid-constraint.
			e.acc.Write(root+offPredLen, []byte{byte(cut), 0})
			return e
		}

		e := cutRoot()
		size := e.acc.Size()
		_, err := e.Register(spec(between("price", 12, 18)), 2)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("core: corrupt node")) {
			t.Fatalf("blob cut to %d bytes: insert err = %v, want a corrupt node", cut, err)
		}
		if e.acc.Size() != size {
			t.Fatalf("blob cut to %d bytes: the failed insert allocated %d bytes", cut, e.acc.Size()-size)
		}

		e = cutRoot()
		if _, err := e.Register(spec(between("price", 30, 40)), 2); err != nil {
			t.Fatalf("blob cut to %d bytes: an unrelated insert failed: %v", cut, err)
		}
		ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(15)})
		if _, err := e.Match(ev); err == nil || !bytes.Contains([]byte(err.Error()), []byte("core: corrupt node")) {
			t.Fatalf("blob cut to %d bytes: match err = %v, want a corrupt node", cut, err)
		}
	}
}
