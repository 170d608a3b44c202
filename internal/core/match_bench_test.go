package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// quoteEngine registers n subscriptions in the three rotating shapes
// of the load harnesses — symbol equality, a price band (a root of the
// general shard), symbol plus a volume band — over 1,000 symbols, and
// returns a stream of events over the same attributes.
func quoteEngine(tb testing.TB, acc simmem.Accessor, n int) (*Engine, []*pubsub.Event) {
	tb.Helper()
	e, err := NewEngine(acc, pubsub.NewSchema(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	symbol := func() pubsub.Value { return pubsub.Str(fmt.Sprintf("S%d", rng.Intn(1000))) }
	for i := 0; i < n; i++ {
		var sp pubsub.SubscriptionSpec
		switch i % 3 {
		case 0:
			sp = spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: symbol()})
		case 1:
			lo := rng.Float64() * 90
			sp = spec(between("price", lo, lo+10))
		default:
			sp = spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: symbol()},
				between("volume", float64(rng.Intn(500_000)), 1_000_000))
		}
		if _, err := e.Register(sp, uint32(i)); err != nil {
			tb.Fatal(err)
		}
	}
	evs := make([]*pubsub.Event, 256)
	for i := range evs {
		evs[i], err = pubsub.NewEvent(e.Schema(), map[string]pubsub.Value{
			"symbol": symbol(),
			"price":  pubsub.Float(rng.Float64() * 100),
			"volume": pubsub.Int(int64(rng.Intn(1_000_000))),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return e, evs
}

// BenchmarkMatchForest is the slice-match layer of the per-layer set:
// one event through a 10,000-subscription forest whose general shard
// holds a third of them as roots, every access metered.
func BenchmarkMatchForest(b *testing.B) {
	e, evs := quoteEngine(b, newPlainAcc(), 10_000)
	var out []MatchResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = e.MatchAppend(evs[i%len(evs)], out[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMatchAppendSteadyStateAllocatesNothing guards the in-place
// evaluator: matching into a reused slice over a database with
// string-equality nodes must not allocate (the decode it replaced built
// a string per string-equality node visited).
func TestMatchAppendSteadyStateAllocatesNothing(t *testing.T) {
	e, evs := quoteEngine(t, newPlainAcc(), 2_000)
	out := make([]MatchResult, 0, 4096)
	i := 0
	match := func() {
		var err error
		if out, err = e.MatchAppend(evs[i%len(evs)], out[:0]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range evs {
		match() // grow the engine's walk stack and fill the LLC model
	}
	if allocs := testing.AllocsPerRun(len(evs), match); allocs != 0 {
		t.Fatalf("steady-state MatchAppend allocates %.1f times per event, want 0", allocs)
	}
}
