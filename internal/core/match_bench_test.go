package core

import (
	"fmt"
	"math/bits"
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
	return e, quoteEvents(tb, e, rng, func(float64) bool { return true })
}

// quoteEvents draws 256 events over the quote mix's attributes, with
// prices uniform over [0, 100) that keep accepts.
func quoteEvents(tb testing.TB, e *Engine, rng *rand.Rand, keep func(price float64) bool) []*pubsub.Event {
	tb.Helper()
	evs := make([]*pubsub.Event, 256)
	for i := range evs {
		symbol := quoteSymbol(rng)
		price := rng.Float64() * 100
		for !keep(price) {
			price = rng.Float64() * 100
		}
		var err error
		evs[i], err = pubsub.NewEvent(e.Schema(), map[string]pubsub.Value{
			"symbol": symbol,
			"price":  pubsub.Float(price),
			"volume": pubsub.Int(int64(rng.Intn(1_000_000))),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return evs
}

// wideLo and wideHi bound the broad band wideEngine adds: the
// benchmark listener's price probe.
const wideLo, wideHi = 20, 60

// wideEngine is quoteEngine with n subscriptions and then a broad
// price band over [wideLo, wideHi], which takes the bands it covers —
// about a third of the price bands — beneath it, as the benchmark's
// listener probe does on the slice it is pinned to. It returns events
// with prices inside the band and outside it.
func wideEngine(tb testing.TB, n int) (e *Engine, in, out []*pubsub.Event) {
	tb.Helper()
	e, _ = quoteEngine(tb, newPlainAcc(), n, Options{})
	if _, err := e.Register(spec(between("price", wideLo, wideHi)), 0); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	inside := func(p float64) bool { return p >= wideLo && p <= wideHi }
	in = quoteEvents(tb, e, rng, inside)
	out = quoteEvents(tb, e, rng, func(p float64) bool { return !inside(p) })
	return e, in, out
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

// benchMatch times MatchRecords calls of n events each — the broker's
// path — and reports per event: ns/op, the records the walks emit and
// the matches they name, metered line lookups, simulated µs and, if
// any, EPC faults.
func benchMatch(b *testing.B, e *Engine, evs []*pubsub.Event, n int) {
	var recs []Record
	batch := func(i int) {
		recs = e.MatchRecords(evs[i*n%len(evs):][:n], recs[:0])
	}
	records, matches := 0, 0
	for i := 0; i < len(evs)/n; i++ {
		batch(i) // grow the records and the walk stack, fill the LLC model
		records += len(recs)
		for _, r := range recs {
			matches += bits.OnesCount64(r.Mask)
		}
	}
	walked := float64(len(evs) / n * n)
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
	b.ReportMetric(float64(records)/walked, "records/event")
	b.ReportMetric(float64(matches)/walked, "matches/event")
	b.ReportMetric(float64(d.LLCHits+d.LLCMisses)/events, "accesses/event")
	b.ReportMetric(meter.Cost.Micros(d.Cycles)/events, "simus/event")
	if d.PageFaults > 0 {
		b.ReportMetric(float64(d.PageFaults)/events, "faults/event")
	}
}

// BenchmarkMatchForest is the slice-match layer of the per-layer set:
// events through a 10,000-subscription forest whose general shard
// holds a third of them as roots, every access metered, one
// MatchRecords of n events per iteration. ns/op is per event, so
// batch=1 reads against the figure this benchmark printed when it
// matched one event per call; accesses/event (LLC lookups) and
// simus/event are what the batch divides. The epc=store/2 runs repeat
// the walk in an enclave whose EPC holds half the store: faults/event
// is the paper's Fig. 8 cost, paid once per page per chunk. The wide
// rows match events priced inside and outside a broad band over 5,900
// subscriptions (wideEngine): a walk of a few events inside it takes
// the band's children from its table.
func BenchmarkMatchForest(b *testing.B) {
	e, evs := quoteEngine(b, newPlainAcc(), 10_000, Options{})
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) { benchMatch(b, e, evs, n) })
	}
	wide, in, out := wideEngine(b, 5_900)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("wide/in/batch=%d", n), func(b *testing.B) { benchMatch(b, wide, in, n) })
		b.Run(fmt.Sprintf("wide/out/batch=%d", n), func(b *testing.B) { benchMatch(b, wide, out, n) })
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
// set: Engine.Register into a 5,000- or 10,000-subscription forest of
// the quote mix, the three shapes in rotation. A price band is
// inserted among the general shard's roots — a third of the forest —
// so it prices the scan through the root table's index. The wide rows
// insert only price bands, 10 wide, into wideEngine's 5,900
// subscriptions and broad band: wide/in bands inside the broad one,
// which scan its children, wide/out bands outside it. Inserts are timed
// in blocks of registerBlock, each block removed again outside the
// timer so the forest stays near its size. grow/10000 registers the
// quote mix's first 10,000 subscriptions into an empty engine, as a
// slice stands up (what the benchmark's match workload prices as
// setup_s), one engine per iteration. ns/op, accesses/op (metered line
// lookups) and simus/op are per insert. The unregister rows time the
// other half of each block instead: Unregister of the block just
// registered, untimed, into the subs=10000 forest, and of wide/in's
// bands, children of the broad band's table.
func BenchmarkRegisterForest(b *testing.B) {
	for _, n := range []int{5_000, 10_000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			e, _ := quoteEngine(b, newPlainAcc(), n, Options{})
			rng := rand.New(rand.NewSource(2))
			specs := make([]pubsub.SubscriptionSpec, 300)
			for i := range specs {
				specs[i] = quoteSpec(rng, i)
			}
			benchRegister(b, e, specs)
		})
	}
	for _, where := range []string{"in", "out"} {
		b.Run("wide/"+where, func(b *testing.B) {
			e, _, _ := wideEngine(b, 5_900)
			benchRegister(b, e, wideBands(where))
		})
	}
	b.Run("unregister/subs=10000", func(b *testing.B) {
		e, _ := quoteEngine(b, newPlainAcc(), 10_000, Options{})
		rng := rand.New(rand.NewSource(2))
		specs := make([]pubsub.SubscriptionSpec, 300)
		for i := range specs {
			specs[i] = quoteSpec(rng, i)
		}
		benchUnregister(b, e, specs)
	})
	b.Run("unregister/wide", func(b *testing.B) {
		e, _, _ := wideEngine(b, 5_900)
		benchUnregister(b, e, wideBands("in"))
	})
	b.Run("grow/10000", func(b *testing.B) {
		const n = 10_000
		specs := make([]pubsub.SubscriptionSpec, n)
		rng := rand.New(rand.NewSource(1))
		for i := range specs {
			specs[i] = quoteSpec(rng, i)
		}
		var d simmem.Counters
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := NewEngine(newPlainAcc(), pubsub.NewSchema(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for j, sp := range specs {
				if _, err := e.Register(sp, uint32(j)); err != nil {
					b.Fatal(err)
				}
			}
			d = d.Add(e.Accessor().Meter().C)
		}
		inserts := float64(b.N * n)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/inserts, "ns/op")
		b.ReportMetric(float64(d.LLCHits+d.LLCMisses)/inserts, "accesses/op")
		b.ReportMetric(simmem.DefaultCost().Micros(d.Cycles)/inserts, "simus/op")
	})
}

// registerBlock is the number of inserts BenchmarkRegisterForest times
// between two stops of the timer: stopping it for every removal put
// the runtime's memory statistics, read at each stop, at about a third
// of the profile.
const registerBlock = 100

// benchRegister times Register of specs in rotation, in blocks of
// registerBlock, removes each block untimed, and reports per insert.
func benchRegister(b *testing.B, e *Engine, specs []pubsub.SubscriptionSpec) {
	meter := e.Accessor().Meter()
	var d simmem.Counters
	ids := make([]uint64, 0, registerBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		before := meter.C
		for ; i < b.N && len(ids) < registerBlock; i++ {
			id, err := e.Register(specs[i%len(specs)], uint32(i))
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		d = d.Add(meter.C.Sub(before))
		b.StopTimer()
		for _, id := range ids {
			if err := e.Unregister(id); err != nil {
				b.Fatal(err)
			}
		}
		ids = ids[:0]
		b.StartTimer()
	}
	b.ReportMetric(float64(d.LLCHits+d.LLCMisses)/float64(b.N), "accesses/op")
	b.ReportMetric(meter.Cost.Micros(d.Cycles)/float64(b.N), "simus/op")
}

// benchUnregister registers specs in rotation, in blocks of
// registerBlock, untimed, times the Unregister of each block, and
// reports per removal.
func benchUnregister(b *testing.B, e *Engine, specs []pubsub.SubscriptionSpec) {
	meter := e.Accessor().Meter()
	var d simmem.Counters
	ids := make([]uint64, 0, registerBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		b.StopTimer()
		for ; i < b.N && len(ids) < registerBlock; i++ {
			id, err := e.Register(specs[i%len(specs)], uint32(i))
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		b.StartTimer()
		before := meter.C
		for _, id := range ids {
			if err := e.Unregister(id); err != nil {
				b.Fatal(err)
			}
		}
		d = d.Add(meter.C.Sub(before))
		ids = ids[:0]
	}
	b.ReportMetric(float64(d.LLCHits+d.LLCMisses)/float64(b.N), "accesses/op")
	b.ReportMetric(meter.Cost.Micros(d.Cycles)/float64(b.N), "simus/op")
}

// TestMatchAppendSteadyStateAllocatesNothing guards the in-place
// evaluator and the walk's scratch: matching into reused slices over a
// database with string-equality nodes must not allocate, one event at
// a time or a batch at a time (the decode the evaluator replaced built
// a string per string-equality node visited; the walk's stack and
// masks are engine scratch and locals), with a broad band's table on
// the lone events' path.
func TestMatchAppendSteadyStateAllocatesNothing(t *testing.T) {
	e, evs := quoteEngine(t, newPlainAcc(), 2_000, Options{})
	if _, err := e.Register(spec(between("price", wideLo, wideHi)), 0); err != nil {
		t.Fatal(err)
	}
	if len(e.tables) < 2 {
		t.Fatal("the broad band has no table")
	}
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
		if err := e.matchRows(batch, slots); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	for range evs {
		matchBatch() // grow every slot to the most any event matches
	}
	if allocs := testing.AllocsPerRun(len(evs), matchBatch); allocs != 0 {
		t.Fatalf("steady-state batch MatchRecords allocates %.1f times per batch, want 0", allocs)
	}
}
