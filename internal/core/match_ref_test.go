package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// matchPerEvent is the walk MatchAppend made before one walk carried a
// whole chunk of events: the general shard, then the shard of each
// event attribute in order, each forest walked for this one event. The
// forests are walked the way a chunk of this event's size walks them:
// a tabled node's children from its table when table is set, as a lone
// event does, along the chains when not (refWalk). It is the reference
// the batch walk is held to — per event the same results in the same
// order, and at batch size 1 (table set) the same simulated counts.
func (e *Engine) matchPerEvent(ev *pubsub.Event, out []MatchResult, table bool) ([]MatchResult, error) {
	w := e.encodedWalk(ev, table)
	w.out = out
	if err := w.run(); err != nil {
		return nil, err
	}
	return w.out, nil
}

// matchPerEventTests is matchPerEvent with tables, recording in tests
// what the walk read of each table.
func (e *Engine) matchPerEventTests(ev *pubsub.Event, tests map[tableVisit]tableRead) ([]MatchResult, error) {
	w := e.encodedWalk(ev, true)
	w.tests = tests
	if err := w.run(); err != nil {
		return nil, err
	}
	return w.out, nil
}

// encodedWalk is the walk for ev alone that evaluates each node's blob
// in place, with pubsub.MatchEncoded.
func (e *Engine) encodedWalk(ev *pubsub.Event, table bool) *refWalk {
	return &refWalk{e: e, ev: ev, table: table, eval: func(off uint64, h nodeHeader) (bool, int, error) {
		if h.predLen == 0 {
			return true, 0, nil
		}
		matched, evaluated, err := pubsub.MatchEncoded(ev, e.acc.Read(off+nodeHeaderSize, int(h.predLen)))
		if err != nil {
			return false, 0, fmt.Errorf("core: corrupt node at %d: %w", off, err)
		}
		return matched, evaluated, nil
	}}
}

// refWalk walks every forest an event consults — the general shard,
// then the shard of each event attribute in order — for that event
// alone, recursively: a visited node is evaluated by eval, charged for
// the constraints it evaluated, and when it matches its subscribers are
// appended to out and its children walked, each subtree whole before
// the next. When table is set a tabled node's children come from its
// index: the directory is read whole, and the leaves whose directory
// entries admit the event (leafAdmits), one predicate's cycles per
// directory entry and per entry of a leaf read; only the children whose
// entries admit the event (entryAdmits) are visited, in chain order,
// the latest link first; a sentinel's header is then not read. Every
// read is the one the engine's walk makes, in the same order. tests,
// when not nil, records what the walk read of each table, by shard
// walk.
type refWalk struct {
	e     *Engine
	ev    *pubsub.Event
	table bool
	eval  func(off uint64, h nodeHeader) (matched bool, evaluated int, err error)
	out   []MatchResult
	tests map[tableVisit]tableRead
	pos   int // the shard walk under way: -1 for the general shard, else the attribute position
}

// tableRead is what one walk read of one table: its directory's
// entries, and the entry count of each leaf it read, by leaf.
type tableRead struct {
	dir    uint64
	leaves map[uint64]uint64
}

// tests is the number of entries the read tested, directory and leaves.
func (r tableRead) tests() uint64 {
	n := r.dir
	for _, c := range r.leaves {
		n += c
	}
	return n
}

// tableVisit names one table read by one shard walk: the general
// shard's (pos -1) or the equality shard of the event's attribute at
// pos.
type tableVisit struct {
	pos  int
	node uint64
}

func (w *refWalk) run() error {
	w.pos = -1
	if err := w.children(w.e.general, nil); err != nil {
		return err
	}
	for i := range w.ev.Attrs {
		sentinel, ok := w.e.shards[keyOf(w.ev.Attrs[i].ID, &w.ev.Attrs[i].Value)]
		if !ok {
			continue
		}
		w.pos = i
		if err := w.children(sentinel, nil); err != nil {
			return err
		}
	}
	return nil
}

// children walks the subtrees under parent, whose header is h, or nil
// for a sentinel's, read only when the chain is followed.
func (w *refWalk) children(parent uint64, h *nodeHeader) error {
	e := w.e
	if t := e.tables[parent]; w.table && t != nil {
		dir := e.readDirs(t, 0, t.leaves, nil)
		read := tableRead{dir: uint64(t.leaves), leaves: make(map[uint64]uint64)}
		var admitted []uint64
		for j := 0; j < t.leaves; j++ {
			d := decodeDir(dir[j*dirEntrySize:])
			if !leafAdmits(&d, w.ev) {
				continue
			}
			raw := e.acc.Read(d.leaf, d.count*entrySize)
			read.leaves[d.leaf] = uint64(d.count)
			for i := 0; i < len(raw); i += entrySize {
				if ent := raw[i : i+entrySize]; entryAdmits(ent, w.ev) {
					admitted = append(admitted, leUint64(ent))
				}
			}
		}
		e.acc.Charge(read.tests() * e.predCycles)
		if w.tests != nil {
			w.tests[tableVisit{w.pos, parent}] = read
		}
		// checkTables holds the link sequences to the chain's order.
		slices.SortFunc(admitted, func(a, b uint64) int { return cmp.Compare(t.at[b], t.at[a]) })
		for _, off := range admitted {
			if _, err := w.visit(off); err != nil {
				return err
			}
		}
		return nil
	}
	if h == nil {
		ph := e.readHeader(parent)
		h = &ph
	}
	for child := h.child; child != nilOff; {
		ch, err := w.visit(child)
		if err != nil {
			return err
		}
		child = ch.sibling
	}
	return nil
}

// visit evaluates the node at off and, when it matches, appends its
// subscribers and walks its children. It returns the node's header.
func (w *refWalk) visit(off uint64) (nodeHeader, error) {
	e := w.e
	h := e.readHeader(off)
	matched, evaluated, err := w.eval(off, h)
	if err != nil {
		return h, err
	}
	e.acc.Charge(uint64(evaluated) * e.predCycles)
	if !matched {
		return h, nil
	}
	w.out = e.appendSubscribers(w.out, h)
	if h.child != nilOff {
		return h, w.children(off, &h)
	}
	return h, nil
}

// appendSubscribers appends the subscribers of the node whose header is
// h, newest first: its list's records, read through the accessor, then
// the subscriber its header holds.
func (e *Engine) appendSubscribers(out []MatchResult, h nodeHeader) []MatchResult {
	for sub := h.firstSub; sub != nilOff; {
		raw := e.acc.Read(sub, subRecordSize)
		out = append(out, MatchResult{SubID: leUint64(raw[8:]), ClientRef: leUint32(raw[16:])})
		sub = leUint64(raw[0:])
	}
	if h.flags&flagOwnSub != 0 {
		out = append(out, MatchResult{SubID: h.ownID, ClientRef: h.ownRef})
	}
	return out
}

// entryAdmits decides from ev's attributes whether the child of table
// entry ent may match it: ev carries an attribute in every class (ID
// mod 32) of the entry's set and, where the entry has a summary, the
// first value ev gives the summary's attribute is a number not outside
// the entry's bounds.
func entryAdmits(ent []byte, ev *pubsub.Event) bool {
	return admits(ev, pubsub.AttrSet(binary.LittleEndian.Uint32(ent[offEntryAttrs:])),
		pubsub.AttrID(binary.LittleEndian.Uint16(ent[offEntryAttr:])),
		math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryLo:])),
		math.Float64frombits(binary.LittleEndian.Uint64(ent[offEntryHi:])),
		ent[offEntryFlags]&entrySummary != 0)
}

// leafAdmits decides from ev's attributes whether the leaf directory
// entry d lists may name a child whose entry admits ev: ev carries an
// attribute in every class of the intersection of the leaf's attribute
// sets and, on a leaf whose entries all carry a summary on its first
// entry's attribute, the first value ev gives it is a number neither
// below the leaf's first lower bound nor above its largest upper bound.
func leafAdmits(d *leafSummary, ev *pubsub.Event) bool {
	return admits(ev, d.inter, d.firstAttr, d.firstLo, float64(d.maxHi), d.flags&(dirAlways|dirOneAttr) == dirOneAttr)
}

// admits is ev's verdict on an attribute set and, when bounded, an
// interval on attribute id: ev carries an attribute in every class of
// attrs, and its first value of id is a number not outside [lo, hi]. A
// NaN value or bound rules nothing out.
func admits(ev *pubsub.Event, attrs pubsub.AttrSet, id pubsub.AttrID, lo, hi float64, bounded bool) bool {
	var carried pubsub.AttrSet
	for _, a := range ev.Attrs {
		carried |= 1 << (a.ID % 32)
	}
	if attrs&^carried != 0 {
		return false
	}
	if !bounded {
		return true
	}
	for _, a := range ev.Attrs {
		if a.ID == id {
			if !a.Value.Numeric() {
				return false
			}
			f := a.Value.AsFloat()
			return !(f < lo || f > hi)
		}
	}
	return false
}

// matchDecoded is the walk Match made before it evaluated constraint
// blobs in place: decode every visited node's constraints into a
// []Constraint, test them in order, charge for the ones tested. Tabled
// nodes' children come from their tables, as a lone event's walk takes
// them (refWalk). It is the reference the property below holds Match
// to — same results, same simulated counts.
func (e *Engine) matchDecoded(ev *pubsub.Event) ([]MatchResult, error) {
	w := refWalk{e: e, ev: ev, table: true, eval: func(off uint64, h nodeHeader) (bool, int, error) {
		cs, err := e.decodeNode(off, h)
		if err != nil {
			return false, 0, err
		}
		for n := 1; n <= len(cs); n++ {
			if !(&pubsub.Subscription{Constraints: cs[:n]}).Matches(ev) {
				return false, n, nil
			}
		}
		return true, len(cs), nil
	}}
	if err := w.run(); err != nil {
		return nil, err
	}
	return w.out, nil
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
