package pubsub

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// constraintsPrefix parses as much of an AppendConstraints blob as is
// there: every whole constraint, then the one the blob is cut inside of
// (as far as its header says), so events can be aimed at the constraints
// a truncated or otherwise rejected blob still names.
func constraintsPrefix(raw []byte) []Constraint {
	r := reader{buf: raw}
	n, err := r.uint16()
	if err != nil {
		return nil
	}
	var cs []Constraint
	for k := 0; k < int(n); k++ {
		id, err := r.uint16()
		if err != nil {
			break
		}
		flags, err := r.byte()
		if err != nil {
			break
		}
		c := Constraint{ID: AttrID(id), Str: flags&cfStr != 0, HasLo: flags&cfHasLo != 0, HasHi: flags&cfHasHi != 0}
		if c.Str {
			c.EqS, err = r.string16()
		} else {
			if c.HasLo {
				c.Lo, err = r.float64()
			}
			if c.HasHi && err == nil {
				c.Hi, err = r.float64()
			}
		}
		cs = append(cs, c)
		if err != nil {
			break
		}
	}
	return cs
}

// chunkNear draws up to ColumnEvents events (some nil) aimed at cs with
// eventNear, then roughens them the ways MatchEncoded's merge join
// must be matched on: an attribute repeated with another value (the
// first occurrence counts), a value swapped for one of the other kind,
// for NaN or for an infinity. Each event's attributes stay sorted by ID
// (a stable sort keeps a repeat's order). live is a random subset of
// the non-nil events.
func chunkNear(rng *rand.Rand, cs []Constraint, extra []AttrID) (evs []*Event, live uint64) {
	odd := []Value{Str("s"), Str(""), Int(0), Int(-3), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.Copysign(0, -1)), {}}
	evs = make([]*Event, 1+rng.Intn(ColumnEvents))
	for i := range evs {
		if rng.Intn(8) == 0 {
			continue
		}
		ev := eventNear(rng, cs, extra)
		for k := range ev.Attrs {
			if rng.Intn(6) == 0 {
				ev.Attrs[k].Value = odd[rng.Intn(len(odd))]
			}
		}
		if len(ev.Attrs) > 0 && rng.Intn(3) == 0 {
			a := ev.Attrs[rng.Intn(len(ev.Attrs))]
			a.Value = odd[rng.Intn(len(odd))]
			ev.Attrs = append(ev.Attrs, a)
			if rng.Intn(2) == 0 {
				// The repeat goes first: it is the one that counts.
				last := len(ev.Attrs) - 1
				for k := range ev.Attrs[:last] {
					if ev.Attrs[k].ID == a.ID {
						ev.Attrs[k], ev.Attrs[last] = ev.Attrs[last], ev.Attrs[k]
						break
					}
				}
			}
			sort.SliceStable(ev.Attrs, func(x, y int) bool { return ev.Attrs[x].ID < ev.Attrs[y].ID })
		}
		evs[i] = ev
		if rng.Intn(6) != 0 {
			live |= uint64(1) << i
		}
	}
	return evs, live
}

// checkColumns holds Columns.Match over the chunk loaded into c to
// MatchEncoded run on each live event alone: the same passing events,
// the same failed ones with the same error text, and the same evaluated
// sum over the events that did not fail. It holds each way of testing a
// numeric constraint there too, the column's rank for every live count
// and the per-event loop for every one, whichever Match picked.
func checkColumns(t *testing.T, c *Columns, evs []*Event, live uint64, raw []byte) {
	t.Helper()
	var wantPass, wantFailed uint64
	wantEvaluated, wantErr := 0, ""
	for m := live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		matched, evaluated, err := MatchEncoded(evs[i], raw)
		switch {
		case err != nil:
			wantFailed |= uint64(1) << i
			if wantErr != "" && err.Error() != wantErr {
				t.Fatalf("events of one chunk fail %v with two errors: %q and %q", raw, wantErr, err)
			}
			wantErr = err.Error()
		case matched:
			wantPass |= uint64(1) << i
			wantEvaluated += evaluated
		default:
			wantEvaluated += evaluated
		}
	}
	for _, path := range []struct {
		name    string
		minRank int
	}{{"Match", rankMin}, {"rank", 0}, {"loop", ColumnEvents + 1}} {
		pass, failed, evaluated, err := c.match(raw, live, path.minRank)
		gotErr := ""
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("Columns.Match (%s) failed with %v, want an ErrCodec", path.name, err)
			}
			gotErr = err.Error()
		}
		if pass != wantPass || failed != wantFailed || evaluated != wantEvaluated || gotErr != wantErr {
			t.Fatalf("blob %v, live %#x: Columns.Match (%s) pass %#x failed %#x evaluated %d err %q; per event pass %#x failed %#x evaluated %d err %q",
				raw, live, path.name, pass, failed, evaluated, gotErr, wantPass, wantFailed, wantEvaluated, wantErr)
		}
	}
}

// checkAdmit holds Columns.Admit over the chunk loaded into c to Match
// and to its own definition. Under the blob's outline (OutlineEncoded:
// its attribute set and first numeric constraint, an absent side at
// ∓Inf) — or, for a blob that has none, under the outline the engine
// gives a corrupt root, every attribute class and no interval — every
// live event Match passes survives, and the survivors are exactly the
// live events that carry an attribute in every class of the set and,
// where there is an interval, whose first value on its attribute is a
// number not below its lower end nor above its upper one: a NaN value
// or a NaN end excludes nothing.
func checkAdmit(t *testing.T, c *Columns, evs []*Event, live uint64, raw []byte) {
	t.Helper()
	attrs, first, bounded, err := OutlineEncoded(raw)
	if err != nil {
		attrs, bounded = ^AttrSet(0), false
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if first.HasLo {
		lo = first.Lo
	}
	if first.HasHi {
		hi = first.Hi
	}
	kept := c.Admit(live, attrs, first.ID, lo, hi, bounded)
	if pass, _, _, _ := c.Match(raw, live); pass&^kept != 0 {
		t.Fatalf("blob %v, live %#x: Match passes %#x, Admit under %b [%v, %v] (%v) keeps only %#x", raw, live, pass, attrs, lo, hi, bounded, kept)
	}
	var want uint64
	for m := live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		var carried AttrSet
		admits := !bounded
		seen := false
		for _, a := range evs[i].Attrs {
			carried |= 1 << (a.ID % 32)
			if bounded && a.ID == first.ID && !seen {
				seen = true
				f := a.Value.AsFloat()
				admits = a.Value.Numeric() && !(f < lo || f > hi) // NaN, either side, passes
			}
		}
		if attrs&^carried == 0 && admits {
			want |= uint64(1) << i
		}
	}
	if kept != want {
		t.Fatalf("blob %v, live %#x: Admit under %b [%v, %v] (%v) keeps %#x, per event %#x", raw, live, attrs, lo, hi, bounded, kept, want)
	}
}

// outlineSeeds are the shapes Admit must not narrow wrongly: attribute
// IDs of 32 and over, whose AttrSet bits are those of the IDs 32 below
// (the events carry IDs 1 and 2 beside them), IDs in the upper half of
// the set, a summary on an aliased ID and one after a string
// constraint, and open and closed bounds at and beyond ±Inf.
func outlineSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	inf := math.Inf(1)
	var blobs [][]byte
	for _, cs := range [][]Constraint{
		{{ID: 1, HasLo: true, HasHi: true, Lo: 0, Hi: 10}, {ID: 33, Str: true, EqS: "HAL"}},
		{{ID: 2, Str: true, EqS: "s"}, {ID: 34, HasLo: true, LoIncl: true, Lo: -inf}},
		{{ID: 33, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: -1, Hi: 1}, {ID: 65, HasHi: true, Hi: inf}},
		{{ID: 32, HasLo: true, Lo: inf}},
		{{ID: 2, HasHi: true, HiIncl: true, Hi: -inf}, {ID: 3, HasLo: true, HasHi: true, Lo: -inf, Hi: inf}},
		{{ID: 66, HasLo: true, HasHi: true, LoIncl: true, Lo: 0, Hi: 0.5}},
		{{ID: 20, HasLo: true, HasHi: true, Lo: -1, Hi: 1}, {ID: 52, Str: true, Prefix: true, EqS: "s"}},
	} {
		blob, err := AppendConstraints(nil, cs)
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// rankSeeds are the numeric shapes whose verdicts the rank path must
// reproduce from sorted values: exclusive and inclusive bounds, an
// absent bound, NaN bounds (no value violates one), ±0 and ±Inf bounds,
// a point interval, and bounds that cross.
func rankSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	var blobs [][]byte
	for _, cs := range [][]Constraint{
		{{ID: 2, HasLo: true, HasHi: true, Lo: 0, Hi: 1}},
		{{ID: 2, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: -1, Hi: 0}},
		{{ID: 2, HasLo: true, Lo: nan}, {ID: 3, HasHi: true, HiIncl: true, Hi: nan}},
		{{ID: 2, HasLo: true, HasHi: true, LoIncl: true, Lo: nan, Hi: 0.5}},
		{{ID: 2, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: negZero, Hi: negZero}},
		{{ID: 2, HasLo: true, Lo: negZero}, {ID: 3, HasHi: true, Hi: 0}},
		{{ID: 2, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: -inf, Hi: inf}},
		{{ID: 2, HasLo: true, HasHi: true, Lo: -inf, Hi: inf}},
		{{ID: 2, HasLo: true, LoIncl: true, Lo: inf}, {ID: 3, HasHi: true, HiIncl: true, Hi: -inf}},
		{{ID: 2, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: 3, Hi: -3}},
		{{ID: 3, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: 1, Hi: 1}},
	} {
		blob, err := AppendConstraints(nil, cs)
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// FuzzMatchColumns holds the column evaluator to the per-event one on
// arbitrary blobs and chunks of up to 64 arbitrary events, each chunk
// loaded over an unrelated earlier one so a stale column would show.
// The corpus is FuzzMatchEncoded's, each seed blob also cut at every
// byte, plus blobs whose constraint IDs repeat or go backwards, plus
// rankSeeds and outlineSeeds. Each input is checked on both ways of
// testing a numeric constraint (checkColumns), and the narrowing by a
// child's outline that the engine's table walk makes before it reads
// the child is held to Match (checkAdmit), for the chunk and for each of
// its events alone. Every failure names the input, so it replays from
// the printed seed.
func FuzzMatchColumns(f *testing.F) {
	blobs := matchEncodedSeeds(f)
	for _, cs := range [][]Constraint{
		{{ID: 3, HasLo: true, Lo: 0}, {ID: 1, Str: true, EqS: "HAL"}},
		{{ID: 2, HasLo: true, HasHi: true, Lo: 0, Hi: 10}, {ID: 2, HasHi: true, HiIncl: true, Hi: 5}, {ID: 4, Str: true, Prefix: true, EqS: "s"}},
	} {
		blob, err := AppendConstraints(nil, cs)
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	for i, blob := range blobs {
		for cut := 0; cut <= len(blob); cut++ {
			f.Add(blob[:cut], int64(i))
		}
	}
	f.Add([]byte{0xFF, 0xFF, 1, 0, 1}, int64(1))
	f.Add([]byte{2, 0, 5, 0, 0, 3, 0, 0}, int64(2)) // IDs out of order
	// Rank-shaped blobs, each under several seeds, so their chunks fall
	// on both sides of rankMin live events.
	for _, blob := range rankSeeds(f) {
		for seed := int64(100); seed < 108; seed++ {
			f.Add(blob, seed)
		}
	}
	for _, blob := range outlineSeeds(f) {
		for seed := int64(200); seed < 208; seed++ {
			f.Add(blob, seed)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		cs := constraintsPrefix(raw)
		rng := rand.New(rand.NewSource(seed))
		extra := []AttrID{0, 1, 2, 3, 9}
		var c Columns
		for trial := 0; trial < 4; trial++ {
			stale, _ := chunkNear(rng, nil, []AttrID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33})
			c.Load(stale)
			evs, live := chunkNear(rng, cs, extra)
			c.Load(evs)
			checkColumns(t, &c, evs, live, raw)
			checkAdmit(t, &c, evs, live, raw)
			for m := live; m != 0; m &= m - 1 {
				checkAdmit(t, &c, evs, m&-m, raw) // each event alone: a lone event's table walk
			}
		}
	})
}

// TestColumnsStaleColumn loads a chunk that carries attribute y, then
// one that does not: a blob constraining y fails every event of the
// second chunk, at y, whichever column y's values were left in. Then it
// ranks y's column on one chunk and loads another with new values of
// y: the second is matched on its own values, not the first's rank.
func TestColumnsStaleColumn(t *testing.T) {
	const x, y, z AttrID = 1, 2, 3
	blob, err := AppendConstraints(nil, []Constraint{
		{ID: x, HasLo: true, Lo: 0},
		{ID: y, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: 0, Hi: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	carries := func(ids ...AttrID) []*Event {
		evs := make([]*Event, 8)
		for i := range evs {
			evs[i] = &Event{}
			for _, id := range ids {
				evs[i].Attrs = append(evs[i].Attrs, EventAttr{ID: id, Value: Int(int64(i + 1))})
			}
		}
		return evs
	}
	for _, second := range [][]AttrID{{x}, {x, z}, {z, 7}} {
		var c Columns
		first := carries(x, y)
		c.Load(first)
		if pass, _, _, err := c.Match(blob, 0xFF); pass != 0xFF || err != nil {
			t.Fatalf("first chunk: pass %#x err %v, want every event", pass, err)
		}
		evs := carries(second...)
		c.Load(evs)
		pass, failed, evaluated, err := c.Match(blob, 0xFF)
		wantEvaluated := 8 * 2 // every event fails at y, the second constraint
		if second[0] != x {
			wantEvaluated = 8 // at x, the first
		}
		if pass != 0 || failed != 0 || evaluated != wantEvaluated || err != nil {
			t.Fatalf("second chunk carrying %v: pass %#x failed %#x evaluated %d err %v, want nothing passing and %d evaluated",
				second, pass, failed, evaluated, err, wantEvaluated)
		}
		checkColumns(t, &c, evs, 0xFF, blob)
	}

	// The same column object holds y in both chunks below, ranked by
	// the first: the second's new values must be ranked afresh.
	values := func(yAt func(i int) float64) []*Event {
		evs := make([]*Event, 16)
		for i := range evs {
			evs[i] = &Event{Attrs: []EventAttr{{ID: x, Value: Int(1)}, {ID: y, Value: Float(yAt(i))}}}
		}
		return evs
	}
	var c Columns
	c.Load(values(func(i int) float64 { return float64(i) }))
	if pass, _, _, err := c.Match(blob, 0xFFFF); pass != 0xFFFF || err != nil {
		t.Fatalf("ranked chunk: pass %#x err %v, want every event", pass, err)
	}
	evs := values(func(i int) float64 { return 95 + 2*float64(i) - 20*float64(i%2) })
	c.Load(evs)
	if pass, _, _, err := c.Match(blob, 0xFFFF); pass != 0xAAF || err != nil {
		t.Fatalf("chunk loaded after a ranked one: pass %#x err %v, want %#x", pass, err, 0xAAF)
	}
	checkColumns(t, &c, evs, 0xFFFF, blob)
}

// BenchmarkColumnsMatch times one Match of a one-band blob (a price
// band of width 10 in [0, 100], as the match workload's general shard
// holds: 4,096 of them, taken in turn, so no outcome repeats the way one
// band's would) against 1 to 64 live events with prices drawn from
// [0, 100), on each path: the per-event loop, the rank with its build
// paid by an earlier call (a chunk's column is ranked once and searched
// at every node after), and the rank built on the call. ns/op is per
// Match call. rankMin is the smallest live count at which the warm
// rank beats the loop.
func BenchmarkColumnsMatch(b *testing.B) {
	const price AttrID = 1
	rng := rand.New(rand.NewSource(1))
	blobs := make([][]byte, 4096)
	for i := range blobs {
		lo := 90 * rng.Float64()
		blob, err := AppendConstraints(nil, []Constraint{{ID: price, HasLo: true, HasHi: true, LoIncl: true, HiIncl: true, Lo: lo, Hi: lo + 10}})
		if err != nil {
			b.Fatal(err)
		}
		blobs[i] = blob
	}
	for _, n := range []int{1, 4, 8, 16, 32, 64} {
		evs := make([]*Event, n)
		for i := range evs {
			evs[i] = &Event{Attrs: []EventAttr{{ID: price, Value: Float(100 * rng.Float64())}}}
		}
		var c Columns
		c.Load(evs)
		live := ^uint64(0) >> (ColumnEvents - n)
		for _, path := range []struct {
			name    string
			minRank int
			cold    bool
		}{{"loop", ColumnEvents + 1, false}, {"rank", 0, false}, {"rank+build", 0, true}} {
			b.Run(fmt.Sprintf("live=%d/path=%s", n, path.name), func(b *testing.B) {
				col := c.slot[price]
				var passed int
				for i := 0; i < b.N; i++ {
					if path.cold {
						col.ranked = false
					}
					pass, _, _, _ := c.match(blobs[i%len(blobs)], live, path.minRank)
					passed += bits.OnesCount64(pass)
				}
				b.ReportMetric(float64(passed)/float64(b.N), "pass/op")
			})
		}
	}
}
