package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// readLog records every arena range read through it.
type readLog struct {
	simmem.Accessor
	reads [][2]uint64 // [off, off+n)
}

func (r *readLog) Read(off uint64, n int) []byte {
	r.reads = append(r.reads, [2]uint64{off, off + uint64(n)})
	return r.Accessor.Read(off, n)
}

// touched reports whether a read since the log was last cleared
// overlapped [off, off+n).
func (r *readLog) touched(off uint64, n int) bool {
	for _, rd := range r.reads {
		if rd[0] < off+uint64(n) && off < rd[1] {
			return true
		}
	}
	return false
}

// TestLoneWalkSkipsRuledOutRoots cuts one root's constraint blob — a
// price band with a narrower band beneath it — and matches events
// alone and together. An event the root's table entry rules out (a price
// outside the band, or no price at all) does not read the root or its
// child, and its results are the intact store's; an event the entry
// admits reads the root, fails there, and gets its slot back, while the
// events of its chunk the entry rules out keep theirs.
func TestLoneWalkSkipsRuledOutRoots(t *testing.T) {
	log := &readLog{Accessor: newPlainAcc()}
	e, err := NewEngine(log, pubsub.NewSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]uint64)
	for _, s := range []struct {
		name string
		sp   pubsub.SubscriptionSpec
	}{
		{"low", spec(between("price", 0, 10))},
		{"cut", spec(between("price", 50, 60))}, // the root to cut
		{"under", spec(between("price", 52, 58))},
		{"volume", spec(gt("volume", 5))},
		{"wide", spec(between("price", 5, 30))},
		{"hal", spec(eq("symbol", "HAL"))},
	} {
		if ids[s.name], err = e.Register(s.sp, 1); err != nil {
			t.Fatal(err)
		}
	}
	root, under := e.subIndex[ids["cut"]], e.subIndex[ids["under"]]
	if h := e.readHeader(root); h.parent != e.general || h.child != under {
		t.Fatalf("the band to cut is not a root over the narrower band: %+v", h)
	}
	quote := func(attrs map[string]pubsub.Value) *pubsub.Event { return event(t, e, attrs) }
	low := quote(map[string]pubsub.Value{"symbol": pubsub.Str("HAL"), "price": pubsub.Float(7), "volume": pubsub.Int(10)})
	priceless := quote(map[string]pubsub.Value{"symbol": pubsub.Str("HAL"), "volume": pubsub.Int(10)})
	inside := quote(map[string]pubsub.Value{"symbol": pubsub.Str("HAL"), "price": pubsub.Float(55), "volume": pubsub.Int(10)})
	intact := make(map[*pubsub.Event][]MatchResult)
	for _, ev := range []*pubsub.Event{low, priceless, inside} {
		res, err := e.MatchAppend(ev, nil)
		if err != nil || len(res) == 0 {
			t.Fatalf("intact store: %v, %v; the test needs matches", res, err)
		}
		intact[ev] = res
	}

	// Make the root's one constraint a string test that claims 65,535
	// bytes: evaluating it on any event that carries a price runs off
	// the blob. Its table entry still summarises the band.
	h := e.readHeader(root)
	blob := bytes.Clone(e.acc.Read(root+nodeHeaderSize, int(h.predLen)))
	e.acc.Write(root+nodeHeaderSize, append(bytes.Clone(blob[:4]), 1 /* string */, 0xFF, 0xFF))

	for _, ev := range []*pubsub.Event{low, priceless} {
		log.reads = log.reads[:0]
		res, err := e.MatchAppend(ev, nil)
		if err != nil || !reflect.DeepEqual(res, intact[ev]) {
			t.Fatalf("an event the cut root's entry rules out: %v, %v; want %v", res, err, intact[ev])
		}
		if log.touched(root, nodeHeaderSize+int(h.predLen)) || log.touched(under, nodeHeaderSize) {
			t.Fatal("an event the cut root's entry rules out read the root or its child")
		}
	}

	log.reads = log.reads[:0]
	if res, err := e.MatchAppend(inside, nil); err == nil || res != nil {
		t.Fatalf("an event the cut root's entry admits = %v, %v; want an error", res, err)
	}
	if !log.touched(root+nodeHeaderSize, int(h.predLen)) {
		t.Fatal("an event the cut root's entry admits did not read its blob")
	}
	prefix := []MatchResult{{SubID: 1 << 40, ClientRef: 9}}
	out := [][]MatchResult{append([]MatchResult(nil), prefix...), nil, append([]MatchResult(nil), prefix...)}
	if err := e.matchRows([]*pubsub.Event{inside, low, priceless}, out); err != nil {
		t.Fatal(err)
	}
	if want := [][]MatchResult{prefix, intact[low], append(append([]MatchResult(nil), prefix...), intact[priceless]...)}; !reflect.DeepEqual(out, want) {
		t.Fatalf("a chunk with one event the cut root admits: %v, want %v", out, want)
	}

	e.acc.Write(root+nodeHeaderSize, blob)
	if res, err := e.MatchAppend(inside, nil); err != nil || !reflect.DeepEqual(res, intact[inside]) {
		t.Fatalf("repaired store: %v, %v; want %v", res, err, intact[inside])
	}

	// The stab's edges: the general shard's roots all in one leaf, an
	// event at the leaf's first lower bound, at a largest upper bound the
	// leaf keeps rounded up to a float32, just past it, NaN, and beside
	// an always-check entry in a leaf of bands. Each event, alone and in
	// a batch of all of them, gets the chain walk's results, and those
	// the case names.
	const hi = 30.3 // rounds down to a float32
	if float64(float32(hi)) >= hi {
		t.Fatalf("%v does not round down to a float32", hi)
	}
	for _, c := range []struct {
		name  string
		specs []pubsub.SubscriptionSpec
		price float64
		want  []int // the specs the event matches
	}{
		{"first lower bound", []pubsub.SubscriptionSpec{spec(between("price", 50, 60)), spec(between("price", 70, 80))}, 50, []int{0}},
		{"largest upper bound", []pubsub.SubscriptionSpec{spec(between("price", 10, 20)), spec(between("price", 10, hi))}, hi, []int{1}},
		{"rounded largest upper bound", []pubsub.SubscriptionSpec{spec(between("price", 10, 20)), spec(between("price", 10, hi))}, float64(up32(hi)), nil},
		{"NaN", []pubsub.SubscriptionSpec{spec(between("price", 50, 60)), spec(between("price", 70, 80))}, math.NaN(), []int{1, 0}},
		{"always-check entry", []pubsub.SubscriptionSpec{spec(between("price", 50, 60)), spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpPrefix, Value: pubsub.Str("H")})}, 5, []int{1}},
	} {
		e := newTestEngine(t)
		ids := make([]uint64, len(c.specs))
		for i, sp := range c.specs {
			if ids[i], err = e.Register(sp, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if tab := e.tables[e.general]; tab.leaves != 1 {
			t.Fatalf("%s: %d leaves", c.name, tab.leaves)
		}
		ev := rawEvent(t, e, map[string]pubsub.Value{"symbol": pubsub.Str("HAL"), "price": pubsub.Float(c.price)})
		chain, err := e.matchPerEvent(ev, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, i := range c.want {
			want = append(want, ids[i])
		}
		if got := resultIDs(chain); !slices.Equal(got, want) {
			t.Fatalf("%s: the chain walk matches %v, want %v", c.name, got, want)
		}
		out := make([][]MatchResult, 3)
		if err := e.matchRows([]*pubsub.Event{ev, nil, ev}, out); err != nil {
			t.Fatal(err)
		}
		if out[1], err = e.MatchAppend(ev, nil); err != nil {
			t.Fatal(err)
		}
		for i, res := range out {
			if !slices.Equal(resultIDs(res), want) {
				t.Fatalf("%s: walk %d matches %v, the chain walk %v", c.name, i, resultIDs(res), want)
			}
		}
	}
}

// resultIDs lists the subscription IDs of results in order.
func resultIDs(res []MatchResult) []uint64 {
	var ids []uint64
	for _, m := range res {
		ids = append(ids, m.SubID)
	}
	return ids
}

// rawEvent is attrs' event in e's schema, NaN values included: NewEvent
// refuses a NaN, so each is set after the fact, as a walk would see one
// that a decoder let through.
func rawEvent(t testing.TB, e *Engine, attrs map[string]pubsub.Value) *pubsub.Event {
	t.Helper()
	clean := maps.Clone(attrs)
	for name, v := range attrs {
		if v.Kind == pubsub.KindFloat && math.IsNaN(v.F) {
			clean[name] = pubsub.Float(0)
		}
	}
	ev, err := pubsub.NewEvent(e.Schema(), clean)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ev.Attrs {
		name, _ := e.Schema().Name(ev.Attrs[i].ID)
		ev.Attrs[i].Value = attrs[name]
	}
	return ev
}

// TestRootWalkOnPagedMemory: on an EPC far smaller than the store, the
// pager evicts — and scrubs — a table page while a lone event's walk
// reads the roots that page lists. The walk works on its copy of the
// entries, so every event gets the chain walk's results, in its order.
func TestRootWalkOnPagedMemory(t *testing.T) {
	e, err := NewEngine(launchTestEnclave(t, newTestDevice(t), 3*simmem.PageSize).Memory(), pubsub.NewSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		lo := float64(i) / 4
		if _, err := e.Register(spec(between("price", lo, lo+5)), uint32(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := e.Register(spec(between("price", lo+1, lo+2), gt("volume", float64(i))), uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	faults := e.acc.Meter().C.PageFaults
	for p := 0.5; p < 105; p += 6.5 {
		ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(p), "volume": pubsub.Int(200)})
		got, err := e.MatchAppend(ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.matchPerEvent(ev, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("price %v: table walk vs chain walk: %s", p, firstDiff(got, want))
		}
		if p < 100 && len(got) == 0 {
			t.Fatalf("price %v matched nothing; the test needs matches", p)
		}
	}
	if e.acc.Meter().C.PageFaults == faults {
		t.Fatal("the walks did not page")
	}
}

// scriptEvent draws an event over scriptSpec's attributes from the
// script: each of symbol and venue present or not, and each of price
// and volume absent, a float from a ladder that straddles scriptBand's
// bounds (±Inf included), an int, or a string where subscriptions test
// a number. The ladder ends with the edges of the index's stab on a
// 64-band widePrelude, whose table is bulk-loaded into leaves of 24: NaN,
// the second leaf's first lower bound, the first leaf's largest upper
// bound, and that bound rounded up to a float32, as its directory keeps
// it.
func scriptEvent(r *scriptReader) map[string]pubsub.Value {
	ladder := []float64{math.Inf(-1), -5, 0, 5, 10, 15, 20, 25, 30, 40, 50, 60, math.Inf(1),
		math.NaN(), preludeLo(24), preludeHi(23), float64(up32(preludeHi(23)))}
	strs := []string{"", "H", "HA", "HAL", "HALO", "IBM"}
	attrs := make(map[string]pubsub.Value)
	b := r.next()
	if b&1 != 0 {
		attrs["symbol"] = pubsub.Str(strs[r.next()%len(strs)])
	}
	if b&2 != 0 {
		attrs["venue"] = pubsub.Str(strs[r.next()%len(strs)])
	}
	for k, name := range []string{"price", "volume"} {
		switch b >> (2 + 2*k) & 3 {
		case 1:
			attrs[name] = pubsub.Float(ladder[r.next()%len(ladder)])
		case 2:
			attrs[name] = pubsub.Int(int64(r.next()%70) - 5)
		case 3:
			attrs[name] = pubsub.Str("x")
		}
	}
	return attrs
}

// FuzzBatchWalkEqualsPerEventWalk builds twin stores from a register /
// unregister script the fuzz bytes choose (FuzzInsertEqualsReference's
// shapes, after widePrelude's broad band), on plain and EPC-paged
// memory, sharded and not, then draws
// events and batches of 1 to tableWalkMax+2 items (some nil) from the
// rest of the script. Each event alone costs what the per-event table
// walk costs, counter for counter, and gets the chain walk's results;
// in a batch each event's slot is the
// per-event walk's results of its chunk's kind, element for element; a
// batch reads no more bytes than those walks together, and a batch
// holding one event reads exactly the bytes and lines of its walk.
func FuzzBatchWalkEqualsPerEventWalk(f *testing.F) {
	f.Add([]byte{12, 1, 0, 5, 7, 1, 0, 4, 10, 1, 1, 8, 8, 0, 0, 1, 2, 2, 14, 1, 2, 5, 11, 85, 3, 9, 21, 6, 7, 4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(append([]byte{40}, bytes.Repeat([]byte{1, 1, 7, 19, 2, 1, 0, 13, 16, 0, 3, 21, 5, 9, 2}, 20)...))
	// The stab's edges (scriptEvent's last four prices) on the 64-band
	// prelude, alone and in batches.
	stab := append([]byte{0, 1}, bytes.Repeat([]byte{4, 13, 4, 14, 4, 15, 4, 16}, 2)...)
	f.Add(append(stab, 3, 0, 1, 2, 3, 9, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1))
	// A prefix root, an always-check entry in the general shard's leaf of
	// bands, and events that carry its symbol and a price below the
	// leaf's first lower bound.
	always := append([]byte{1, 1, 1, 4, 1}, bytes.Repeat([]byte{5, 3, 1, 5, 3, 14}, 4)...)
	f.Add(append(always, 2, 0, 1, 2, 7, 1, 0, 2, 3, 4, 5, 6, 7))
	seed := make([]byte, 600)
	for i := range seed {
		seed[i] = byte(i*131 + i/7)
	}
	f.Add(seed)
	dev := newTestDevice(f)
	memories := []struct {
		name string
		new  func(t *testing.T) simmem.Accessor
	}{
		{"plain", func(*testing.T) simmem.Accessor { return newPlainAcc() }},
		{"enclave-paging", func(t *testing.T) simmem.Accessor {
			return launchTestEnclave(t, dev, 4*simmem.PageSize).Memory()
		}},
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1200 {
			script = script[:1200]
		}
		if len(script) == 0 {
			return
		}
		// The first byte is the number of register / unregister steps;
		// the bytes they leave draw the events and batches.
		steps, script := int(script[0]), script[1:]
		for _, mem := range memories {
			for _, opts := range []Options{{}, {DisableSharding: true}} {
				name := fmt.Sprintf("%s %+v", mem.name, opts)
				build := func() (*Engine, *scriptReader) {
					e, err := NewEngine(mem.new(t), pubsub.NewSchema(), opts)
					if err != nil {
						t.Fatal(err)
					}
					r := &scriptReader{b: script}
					var live []uint64
					for i, sp := range widePrelude(r) {
						id, err := e.Register(sp, uint32(i))
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, id)
					}
					for step := 0; step < steps && len(r.b) > 0; step++ {
						if b := r.next(); b%4 == 0 && len(live) > 0 {
							k := r.next() % len(live)
							if err := e.Unregister(live[k]); err != nil {
								t.Fatalf("%s step %d: %v", name, step, err)
							}
							live = append(live[:k], live[k+1:]...)
							continue
						}
						sub, err := pubsub.Normalize(e.Schema(), scriptSpec(r))
						if err != nil {
							continue
						}
						id, err := e.RegisterNormalized(sub, uint32(step))
						if err != nil {
							t.Fatalf("%s step %d: %v", name, step, err)
						}
						live = append(live, id)
					}
					return e, r
				}
				got, r := build()
				ref, _ := build()
				gotC, refC := &got.acc.Meter().C, &ref.acc.Meter().C

				// Events, each alone: every counter equal after each.
				var events []*pubsub.Event
				refOf := make(map[*pubsub.Event]*pubsub.Event)
				for len(events) < 8 && len(r.b) > 0 {
					attrs := scriptEvent(r)
					ev := rawEvent(t, got, attrs)
					refOf[ev] = rawEvent(t, ref, attrs)
					events = append(events, ev)
				}
				lone := make([][]MatchResult, len(events))
				for i, ev := range events {
					gotRes, gotErr := got.MatchAppend(ev, nil)
					refRes, refErr := ref.matchPerEvent(refOf[ev], nil, true)
					if gotErr != nil || refErr != nil {
						t.Fatalf("%s event %d: %v / %v", name, i, gotErr, refErr)
					}
					if len(gotRes)+len(refRes) > 0 && !reflect.DeepEqual(gotRes, refRes) {
						t.Fatalf("%s event %d: walk vs per-event walk: %s", name, i, firstDiff(gotRes, refRes))
					}
					if *gotC != *refC {
						t.Fatalf("%s event %d: counters %+v, after the per-event walk %+v", name, i, *gotC, *refC)
					}
					lone[i] = gotRes
				}
				if len(events) == 0 {
					return
				}
				// The stab skips no child an event may pass: each event
				// alone gets the chain walk's results too. (The batches
				// below compare bytes and lookups, not cycles, so the
				// chain walks do not disturb them.)
				for i, ev := range events {
					want, err := ref.matchPerEvent(refOf[ev], nil, false)
					if err != nil {
						t.Fatal(err)
					}
					if len(lone[i])+len(want) > 0 && !reflect.DeepEqual(lone[i], want) {
						t.Fatalf("%s event %d: walk vs chain walk: %s", name, i, firstDiff(lone[i], want))
					}
				}

				// Batches of 1 to tableWalkMax+2 items.
				for len(r.b) > 0 {
					n := 1 + r.next()%(tableWalkMax+2)
					evs := make([]*pubsub.Event, n)
					for i := range evs {
						if b := r.next(); b%7 != 6 {
							evs[i] = events[b%len(events)]
						}
					}
					out := make([][]MatchResult, n)
					before, refBefore := *gotC, *refC
					if err := got.matchRows(evs, out); err != nil {
						t.Fatal(err)
					}
					k := chunkEvents(evs)
					for i, ev := range evs {
						if ev == nil {
							continue
						}
						want, err := ref.matchPerEvent(refOf[ev], nil, k[i] <= tableWalkMax)
						if err != nil {
							t.Fatal(err)
						}
						if len(out[i])+len(want) > 0 && !reflect.DeepEqual(out[i], want) {
							t.Fatalf("%s batch of %d item %d: walk vs per-event walk: %s", name, n, i, firstDiff(out[i], want))
						}
					}
					d, refD := gotC.Sub(before), refC.Sub(refBefore)
					if d.BytesRead > refD.BytesRead || k[0] == 1 && (d.BytesRead != refD.BytesRead || lookups(d) != lookups(refD)) {
						t.Fatalf("%s batch of %d (%d events): read %d bytes in %d line lookups, the per-event walks %d in %d",
							name, n, k[0], d.BytesRead, lookups(d), refD.BytesRead, lookups(refD))
					}
				}
			}
		}
	})
}
