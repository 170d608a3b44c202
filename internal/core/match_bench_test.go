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
func quoteEngine(tb testing.TB, acc simmem.Accessor, n int, opts Options) (*Engine, []*pubsub.Event) {
	tb.Helper()
	e, err := NewEngine(acc, pubsub.NewSchema(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if _, err := e.Register(quoteSpec(rng, i), uint32(i)); err != nil {
			tb.Fatal(err)
		}
	}
	evs := make([]*pubsub.Event, 256)
	for i := range evs {
		evs[i], err = pubsub.NewEvent(e.Schema(), map[string]pubsub.Value{
			"symbol": quoteSymbol(rng),
			"price":  pubsub.Float(rng.Float64() * 100),
			"volume": pubsub.Int(int64(rng.Intn(1_000_000))),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return e, evs
}

func quoteSymbol(rng *rand.Rand) pubsub.Value { return pubsub.Str(fmt.Sprintf("S%d", rng.Intn(1000))) }

// quoteSpec draws subscription i of the quote mix: shape i mod 3.
func quoteSpec(rng *rand.Rand, i int) pubsub.SubscriptionSpec {
	switch i % 3 {
	case 0:
		return spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: quoteSymbol(rng)})
	case 1:
		lo := rng.Float64() * 90
		return spec(between("price", lo, lo+10))
	default:
		return spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: quoteSymbol(rng)},
			between("volume", float64(rng.Intn(500_000)), 1_000_000))
	}
}

// benchMatch times MatchAppendBatch calls of n events each and reports
// per event: ns/op, metered line lookups, simulated µs and, if any, EPC
// faults.
func benchMatch(b *testing.B, e *Engine, evs []*pubsub.Event, n int) {
	out := make([][]MatchResult, n)
	batch := func(i int) {
		for j := range out {
			out[j] = out[j][:0]
		}
		if err := e.MatchAppendBatch(evs[i*n%len(evs):][:n], out); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < len(evs)/n; i++ {
		batch(i) // grow the slots and the walk stack, fill the LLC model
	}
	meter := e.Accessor().Meter()
	before := meter.C
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		batch(i / n)
	}
	b.StopTimer()
	events := float64((b.N + n - 1) / n * n)
	d := meter.C.Sub(before)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/op")
	b.ReportMetric(float64(d.LLCHits+d.LLCMisses)/events, "accesses/event")
	b.ReportMetric(meter.Cost.Micros(d.Cycles)/events, "simus/event")
	if d.PageFaults > 0 {
		b.ReportMetric(float64(d.PageFaults)/events, "faults/event")
	}
}

// BenchmarkMatchForest is the slice-match layer of the per-layer set:
// events through a 10,000-subscription forest whose general shard
// holds a third of them as roots, every access metered, one
// MatchAppendBatch of n events per iteration. ns/op is per event, so
// batch=1 reads against the figure this benchmark printed when it
// matched one event per call; accesses/event (LLC lookups) and
// simus/event are what the batch divides. The epc=store/2 runs repeat
// the walk in an enclave whose EPC holds half the store: faults/event
// is the paper's Fig. 8 cost, paid once per page per chunk.
func BenchmarkMatchForest(b *testing.B) {
	e, evs := quoteEngine(b, newPlainAcc(), 10_000, Options{})
	for _, n := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) { benchMatch(b, e, evs, n) })
	}
	epc := e.Stats().Bytes / 2 &^ (simmem.PageSize - 1)
	paged, evs := quoteEngine(b, launchTestEnclave(b, newTestDevice(b), epc).Memory(), 10_000, Options{})
	for _, n := range []int{1, 32} {
		b.Run(fmt.Sprintf("epc=store÷2/batch=%d", n), func(b *testing.B) { benchMatch(b, paged, evs, n) })
	}
}

// BenchmarkAblationSharding prices the one place the index departs from
// the paper's (internal/exp's package comment): the forest sharded by
// equality value against a single root-scanned forest, one event per
// call over the same 10,000 subscriptions.
func BenchmarkAblationSharding(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts Options
	}{{"sharded", Options{}}, {"single-forest", Options{DisableSharding: true}}} {
		b.Run(tc.name, func(b *testing.B) {
			e, evs := quoteEngine(b, newPlainAcc(), 10_000, tc.opts)
			benchMatch(b, e, evs, 1)
		})
	}
}

// BenchmarkRegisterForest is the registration layer of the per-layer
// set: one Engine.Register per op into a 5,000- or 10,000-subscription
// forest of the quote mix, the three shapes in rotation, each removed
// again outside the timer so the forest stays at its size. A price band
// is inserted among the general shard's roots — a third of the forest —
// so it prices the sibling pass. ns/op, accesses/op (metered line
// lookups) and simus/op are per insert.
func BenchmarkRegisterForest(b *testing.B) {
	for _, n := range []int{5_000, 10_000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			e, _ := quoteEngine(b, newPlainAcc(), n, Options{})
			rng := rand.New(rand.NewSource(2))
			specs := make([]pubsub.SubscriptionSpec, 300)
			for i := range specs {
				specs[i] = quoteSpec(rng, i)
			}
			meter := e.Accessor().Meter()
			var d simmem.Counters
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := meter.C
				id, err := e.Register(specs[i%len(specs)], uint32(i))
				if err != nil {
					b.Fatal(err)
				}
				d = d.Add(meter.C.Sub(before))
				b.StopTimer()
				if err := e.Unregister(id); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(d.LLCHits+d.LLCMisses)/float64(b.N), "accesses/op")
			b.ReportMetric(meter.Cost.Micros(d.Cycles)/float64(b.N), "simus/op")
		})
	}
}

// TestMatchAppendSteadyStateAllocatesNothing guards the in-place
// evaluator and the walk's scratch: matching into reused slices over a
// database with string-equality nodes must not allocate, one event at
// a time or a batch at a time (the decode the evaluator replaced built
// a string per string-equality node visited; the walk's stack and
// masks are engine scratch and locals).
func TestMatchAppendSteadyStateAllocatesNothing(t *testing.T) {
	e, evs := quoteEngine(t, newPlainAcc(), 2_000, Options{})
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

	const n = 100 // two chunks, with holes
	batch, slots := make([]*pubsub.Event, n), make([][]MatchResult, n)
	matchBatch := func() {
		for j := range batch {
			batch[j], slots[j] = evs[(i+j)%len(evs)], slots[j][:0]
			if j%9 == 0 {
				batch[j] = nil
			}
		}
		if err := e.MatchAppendBatch(batch, slots); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	for range evs {
		matchBatch() // grow every slot to the most any event matches
	}
	if allocs := testing.AllocsPerRun(len(evs), matchBatch); allocs != 0 {
		t.Fatalf("steady-state MatchAppendBatch allocates %.1f times per batch, want 0", allocs)
	}
}
