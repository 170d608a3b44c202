package pubsub

import (
	"errors"
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
	odd := []Value{Str("s"), Str(""), Int(0), Int(-3), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), {}}
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
// sum over the events that did not fail.
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
	pass, failed, evaluated, err := c.Match(raw, live)
	gotErr := ""
	if err != nil {
		if !errors.Is(err, ErrCodec) {
			t.Fatalf("Columns.Match failed with %v, want an ErrCodec", err)
		}
		gotErr = err.Error()
	}
	if pass != wantPass || failed != wantFailed || evaluated != wantEvaluated || gotErr != wantErr {
		t.Fatalf("blob %v, live %#x: Columns.Match pass %#x failed %#x evaluated %d err %q; per event pass %#x failed %#x evaluated %d err %q",
			raw, live, pass, failed, evaluated, gotErr, wantPass, wantFailed, wantEvaluated, wantErr)
	}
}

// FuzzMatchColumns holds the column evaluator to the per-event one on
// arbitrary blobs and chunks of up to 64 arbitrary events, each chunk
// loaded over an unrelated earlier one so a stale column would show.
// The corpus is FuzzMatchEncoded's, each seed blob also cut at every
// byte, plus blobs whose constraint IDs repeat or go backwards. Every
// failure names the input, so it replays from the printed seed.
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
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		cs := constraintsPrefix(raw)
		rng := rand.New(rand.NewSource(seed))
		extra := []AttrID{0, 1, 2, 3, 9}
		var c Columns
		for trial := 0; trial < 4; trial++ {
			stale, _ := chunkNear(rng, nil, []AttrID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
			c.Load(stale)
			evs, live := chunkNear(rng, cs, extra)
			c.Load(evs)
			checkColumns(t, &c, evs, live, raw)
		}
	})
}

// TestColumnsStaleColumn loads a chunk that carries attribute y, then
// one that does not: a blob constraining y fails every event of the
// second chunk, at y, whichever column y's values were left in.
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
}
