package aspe

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// scanBed draws seeded subscriptions and events over a universe of one
// string attribute ("symbol") and nAttrs−1 numeric ones.
type scanBed struct {
	tb     testing.TB
	scheme *Scheme
	schema *pubsub.Schema
	nums   []string
	rng    *rand.Rand
	// symbol draws a symbol rank, numDomain bounds the numeric values.
	symbol    func() int
	numDomain int
}

func newScanBed(tb testing.TB, nAttrs int, seed int64) *scanBed {
	tb.Helper()
	names := []string{"symbol"}
	for i := 1; i < nAttrs; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	schema, ids := buildUniverse(tb, names...)
	scheme, err := NewScheme(schema, ids, seed)
	if err != nil {
		tb.Fatal(err)
	}
	bed := &scanBed{tb: tb, scheme: scheme, schema: schema, nums: names[1:], rng: rand.New(rand.NewSource(seed)), numDomain: 40}
	bed.symbol = func() int { return bed.rng.Intn(5) }
	for _, id := range ids[1:] {
		if err := scheme.SetScale(id, float64(bed.numDomain)); err != nil {
			tb.Fatal(err)
		}
	}
	return bed
}

func (b *scanBed) store(prefilter bool) *Store {
	s := NewStore(simmem.NewPlainAccessor(simmem.DefaultCost()), Options{Prefilter: prefilter})
	if err := s.Configure(b.scheme.Dim()); err != nil {
		b.tb.Fatal(err)
	}
	return s
}

func (b *scanBed) symbolEq() pubsub.Predicate {
	return pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str(fmt.Sprintf("S%d", b.symbol()))}
}

// band is a closed range a tenth of the domain wide on one numeric
// attribute.
func (b *scanBed) band(attr string) pubsub.Predicate {
	lo := float64(b.rng.Intn(b.numDomain * 9 / 10))
	return pubsub.Predicate{Attr: attr, Op: pubsub.OpBetween, Value: pubsub.Float(lo), Hi: pubsub.Float(lo + float64(b.numDomain)/10)}
}

func (b *scanBed) encodeSub(preds ...pubsub.Predicate) *EncodedSubscription {
	sub, err := pubsub.Normalize(b.schema, pubsub.SubscriptionSpec{Predicates: preds})
	if err != nil {
		b.tb.Fatal(err)
	}
	es, err := b.scheme.EncodeSubscription(sub)
	if err != nil {
		b.tb.Fatal(err)
	}
	return es
}

// rotatingSub is the load harnesses' population law: symbol equality,
// a band, symbol plus a band, in rotation.
func (b *scanBed) rotatingSub(i int) *EncodedSubscription {
	switch i % 3 {
	case 0:
		return b.encodeSub(b.symbolEq())
	case 1:
		return b.encodeSub(b.band(b.nums[0]))
	default:
		return b.encodeSub(b.symbolEq(), b.band(b.nums[1]))
	}
}

// anySub adds numeric equalities, several bands and two kinds of
// hostile entry (HasEq over a filter with no bit, or every bit, set) to
// the rotation.
func (b *scanBed) anySub(i int) *EncodedSubscription {
	num := func() string { return b.nums[b.rng.Intn(len(b.nums))] }
	switch b.rng.Intn(8) {
	case 0:
		return b.encodeSub(pubsub.Predicate{Attr: num(), Op: pubsub.OpEq, Value: pubsub.Float(float64(b.rng.Intn(b.numDomain)))})
	case 1:
		return b.encodeSub(b.symbolEq(), b.band(b.nums[0]), b.band(b.nums[len(b.nums)-1]))
	case 2:
		es := b.rotatingSub(i)
		es.HasEq, es.Filter = true, Bloom{}
		return es
	case 3:
		es := b.rotatingSub(i)
		es.HasEq, es.Filter = true, Bloom{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		return es
	default:
		return b.rotatingSub(i)
	}
}

// event draws a publication over every attribute, now and then short
// of one.
func (b *scanBed) event() *EncodedPublication {
	attrs := map[string]pubsub.Value{"symbol": pubsub.Str(fmt.Sprintf("S%d", b.symbol()))}
	for _, n := range b.nums {
		attrs[n] = pubsub.Float(float64(b.rng.Intn(b.numDomain)))
	}
	if b.rng.Intn(6) == 0 {
		delete(attrs, b.nums[b.rng.Intn(len(b.nums))])
	}
	ev, err := pubsub.NewEvent(b.schema, attrs)
	if err != nil {
		b.tb.Fatal(err)
	}
	ep, err := b.scheme.EncodePublication(ev)
	if err != nil {
		b.tb.Fatal(err)
	}
	return ep
}

// matchRows is MatchRecords expanded into per-item rows
// (core.AppendRows): eps and out are parallel, and each item's matches
// are appended to its slot.
func matchRows(s *Store, eps []*EncodedPublication, out [][]Match) error {
	if len(out) < len(eps) {
		return fmt.Errorf("aspe: batch result slots %d < publications %d", len(out), len(eps))
	}
	recs, err := s.MatchRecords(eps, nil)
	core.AppendRows(out, recs)
	return err
}

// TestBatchScan holds the chunked scan to the two loops it replaced,
// on four stores fed the same registrations: MatchRecords' rows
// (matchRows) against matchBatchRef (run chunk by chunk, so a batch over
// 64 re-reads there too) and a batch of one against matchPerItem — the
// same matches in the same order, and after every call every simmem
// counter equal. A point of the wrong dimension matches nothing in a
// batch, where matchPerItem refuses it.
func TestBatchScan(t *testing.T) {
	for _, nAttrs := range []int{4, 11} {
		for _, prefilter := range []bool{true, false} {
			seed := int64(100*nAttrs) + 7
			t.Run(fmt.Sprintf("attrs=%d/prefilter=%v", nAttrs, prefilter), func(t *testing.T) {
				testBatchScan(t, newScanBed(t, nAttrs, seed), prefilter, seed)
			})
		}
	}
}

func testBatchScan(t *testing.T, bed *scanBed, prefilter bool, seed int64) {
	batch, batchRef, single, perItem := bed.store(prefilter), bed.store(prefilter), bed.store(prefilter), bed.store(prefilter)
	stores := []*Store{batch, batchRef, single, perItem}
	var ids []uint64
	register := func(es *EncodedSubscription) {
		var id uint64
		for _, s := range stores {
			var err error
			if id, err = s.Register(es, uint32(len(ids))); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		ids = append(ids, id)
	}
	for i := 0; i < 240; i++ {
		es := bed.anySub(i)
		register(es)
		if i%10 == 0 {
			register(es) // a duplicate
		}
	}
	wrongDim := &EncodedPublication{Dim: bed.scheme.Dim() + 2, Point: make([]float64, bed.scheme.Dim()+2)}
	sentinel := Match{SubID: 1 << 60, ClientRef: 77}

	for round, n := range []int{1, 2, 7, 8, 63, 64, 65, 200} {
		// Churn between batches: the stores go through Unregister's
		// free list and slab compaction on the way.
		for k := 0; k < 40; k++ {
			j := bed.rng.Intn(len(ids))
			for _, s := range stores {
				if err := s.Unregister(ids[j]); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			ids = slices.Delete(ids, j, j+1)
			if k%2 == round%2 {
				register(bed.anySub(k))
			}
		}

		eps := make([]*EncodedPublication, n)
		for i := range eps {
			switch {
			case n > 2 && i%7 == 3:
			case n > 2 && i%11 == 5:
				eps[i] = wrongDim
			default:
				eps[i] = bed.event()
			}
		}
		given := slices.Clone(eps)
		got, want := make([][]Match, n), make([][]Match, n)
		for i := range got {
			got[i], want[i] = []Match{sentinel}, []Match{sentinel}
		}
		if err := matchRows(batch, eps, got); err != nil {
			t.Fatalf("seed %d batch %d: %v", seed, n, err)
		}
		if !slices.Equal(eps, given) {
			t.Fatalf("seed %d batch %d: MatchRecords wrote to its caller's slice", seed, n)
		}
		for base := 0; base < n; base += scanChunk {
			end := min(base+scanChunk, n)
			if err := batchRef.matchBatchRef(eps[base:end], want[base:end]); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, n, err)
			}
		}
		if batch.Meter().C != batchRef.Meter().C {
			t.Fatalf("seed %d batch %d: counters\n got  %+v\n want %+v", seed, n, batch.Meter().C, batchRef.Meter().C)
		}
		matched := 0
		for i, ep := range eps {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("seed %d batch %d item %d: batch scan %v, reference %v", seed, n, i, got[i], want[i])
			}
			if ep == nil {
				continue
			}
			one := [][]Match{{sentinel}}
			if err := matchRows(single, []*EncodedPublication{ep}, one); err != nil {
				t.Fatalf("seed %d batch %d item %d: %v", seed, n, i, err)
			}
			ref, refErr := perItem.matchPerItem(ep, []Match{sentinel})
			if (ep == wrongDim) != (refErr != nil) {
				t.Fatalf("seed %d batch %d item %d: reference error %v", seed, n, i, refErr)
			}
			if refErr != nil {
				ref = []Match{sentinel}
			}
			if !slices.Equal(one[0], ref) || !slices.Equal(one[0], got[i]) {
				t.Fatalf("seed %d batch %d item %d: batch of one %v, per item %v, batch %v", seed, n, i, one[0], ref, got[i])
			}
			if single.Meter().C != perItem.Meter().C {
				t.Fatalf("seed %d batch %d item %d: counters\n got  %+v\n want %+v", seed, n, i, single.Meter().C, perItem.Meter().C)
			}
			matched += len(one[0]) - 1
		}
		if matched == 0 {
			t.Fatalf("seed %d batch %d: no event matched anything", seed, n)
		}
	}
}

// TestUnregisterReusesVectorSlots: at a constant live set the arena
// stays where the first fill left it.
func TestUnregisterReusesVectorSlots(t *testing.T) {
	bed := newScanBed(t, 4, 3)
	store := bed.store(true)
	type live struct {
		id uint64
		es *EncodedSubscription
	}
	var subs []live
	for i := 0; i < 200; i++ {
		es := bed.rotatingSub(i)
		id, err := store.Register(es, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, live{id, es})
	}
	filled := store.Bytes()
	for step := 0; step < 10_000; step++ {
		l := &subs[bed.rng.Intn(len(subs))]
		if err := store.Unregister(l.id); err != nil {
			t.Fatal(err)
		}
		var err error
		if l.id, err = store.Register(l.es, 0); err != nil {
			t.Fatal(err)
		}
	}
	if store.Bytes() != filled || store.Len() != len(subs) {
		t.Fatalf("after 10,000 unregister/register steps: %d bytes for %d subscriptions, first fill took %d for %d",
			store.Bytes(), store.Len(), filled, len(subs))
	}
	if store.dead > len(store.slab)/2 {
		t.Fatalf("slab holds %d words, %d of them dead", len(store.slab), store.dead)
	}
	// A new dimension on an empty store drops the old-size slots.
	for _, l := range subs {
		if err := store.Unregister(l.id); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Configure(store.Dim() + 2); err != nil {
		t.Fatal(err)
	}
	if len(store.free) != 0 {
		t.Fatalf("%d free slots survived a re-dimension", len(store.free))
	}
}

// failingAlloc fails the failAt-th Alloc.
type failingAlloc struct {
	simmem.Accessor
	calls, failAt int
}

func (f *failingAlloc) Alloc(n int) (uint64, error) {
	if f.calls++; f.calls == f.failAt {
		return 0, errors.New("arena full")
	}
	return f.Accessor.Alloc(n)
}

// TestInsertAllocFailureLeavesStoreAsItWas: an insert that runs out of
// arena half-way registers nothing and leaks nothing.
func TestInsertAllocFailureLeavesStoreAsItWas(t *testing.T) {
	bed := newScanBed(t, 4, 5)
	acc := &failingAlloc{Accessor: simmem.NewPlainAccessor(simmem.DefaultCost()), failAt: 6}
	store := NewStore(acc, Options{Prefilter: true})
	if err := store.Configure(bed.scheme.Dim()); err != nil {
		t.Fatal(err)
	}
	three, six := bed.rotatingSub(0), bed.rotatingSub(2)
	if len(three.Vectors) != 3 || len(six.Vectors) != 6 {
		t.Fatalf("bed shapes carry %d and %d vectors", len(three.Vectors), len(six.Vectors))
	}
	if id, err := store.Register(three, 0); err != nil || id != 1 {
		t.Fatalf("first register: id %d, %v", id, err)
	}
	slabWords := len(store.slab)
	if _, err := store.Register(six, 0); err == nil {
		t.Fatal("register succeeded though its third Alloc failed")
	}
	if store.Len() != 1 || len(store.index) != 1 || len(store.slab) != slabWords || len(store.free) != 2 {
		t.Fatalf("after the failed insert: %d subscriptions, %d indexed, %d slab words (%d before), %d free slots",
			store.Len(), len(store.index), len(store.slab), slabWords, len(store.free))
	}
	before := store.Bytes()
	if id, err := store.Register(six, 0); err != nil || id != 2 {
		t.Fatalf("register after the failure: id %d, %v", id, err)
	}
	if grew, want := store.Bytes()-before, uint64(4*store.vecBytes()); grew != want {
		t.Fatalf("the retry grew the arena by %d bytes, want %d: the two slots already written were not reused", grew, want)
	}
	ep := bed.event()
	got := make([][]Match, 1)
	if err := matchRows(store, []*EncodedPublication{ep}, got); err != nil {
		t.Fatal(err)
	}
	clean := bed.store(true)
	for _, es := range []*EncodedSubscription{three, six} {
		if _, err := clean.Register(es, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]Match, 1)
	if err := matchRows(clean, []*EncodedPublication{ep}, want); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got[0], want[0]) {
		t.Fatalf("matches %v, a store that never failed gives %v", got[0], want[0])
	}
}

// TestInsertRejectsMisshapenVector: a subscription whose vectors are
// not all of the store's dimension is refused before a slot is taken —
// a longer vector would overrun the encode buffer, a shorter one would
// store the previous vector's tail.
func TestInsertRejectsMisshapenVector(t *testing.T) {
	bed := newScanBed(t, 4, 9)
	store := bed.store(true)
	if _, err := store.Register(bed.rotatingSub(1), 0); err != nil {
		t.Fatal(err)
	}
	bytes, slabWords, free := store.Bytes(), len(store.slab), len(store.free)
	for _, delta := range []int{1, -1} {
		es := bed.rotatingSub(1)
		last := len(es.Vectors) - 1
		es.Vectors[last] = slices.Grow(es.Vectors[last], 1)[:len(es.Vectors[last])+delta]
		if _, err := store.Register(es, 0); err == nil {
			t.Fatalf("a vector of %d components registered in a store of dimension %d", len(es.Vectors[last]), store.Dim())
		}
		if store.Len() != 1 || store.Bytes() != bytes || len(store.slab) != slabWords || len(store.free) != free {
			t.Fatalf("after refusing a %+d vector: %d subscriptions, %d bytes (%d before), %d slab words (%d), %d free slots (%d)",
				delta, store.Len(), store.Bytes(), bytes, len(store.slab), slabWords, len(store.free), free)
		}
	}
}

// workloadBed is the `aspe` benchmark workload's population: four
// attributes, n subscriptions in the three rotating shapes, 1,000
// symbols with zipf popularity on both sides, 256 events.
func workloadBed(tb testing.TB, n int) (*Store, []*EncodedPublication) {
	bed := newScanBed(tb, 4, 1)
	zipf := rand.NewZipf(bed.rng, 1.01, 1, 999)
	bed.symbol = func() int { return int(zipf.Uint64()) }
	store := bed.store(true)
	for i := 0; i < n; i++ {
		if _, err := store.Register(bed.rotatingSub(i), uint32(i)); err != nil {
			tb.Fatal(err)
		}
	}
	eps := make([]*EncodedPublication, 256)
	for i := range eps {
		eps[i] = bed.event()
	}
	return store, eps
}

// TestScanSteadyStateAllocatesNothing guards the scan's scratch: one
// event or a batch at a time, its records into a reused list and
// expanded into reused slots, it must not allocate.
func TestScanSteadyStateAllocatesNothing(t *testing.T) {
	store, eps := workloadBed(t, 600)
	var recs []core.Record
	rows := func(eps []*EncodedPublication, out [][]Match) {
		var err error
		if recs, err = store.MatchRecords(eps, recs[:0]); err != nil {
			t.Fatal(err)
		}
		core.AppendRows(out, recs)
	}
	out := [][]Match{make([]Match, 0, 1024)}
	i := 0
	one := func() {
		out[0] = out[0][:0]
		rows(eps[i%len(eps):][:1], out)
		i++
	}
	one()
	if allocs := testing.AllocsPerRun(len(eps), one); allocs != 0 {
		t.Fatalf("steady-state one-event MatchRecords allocates %.1f times per event, want 0", allocs)
	}

	const n = 100 // two chunks, with holes
	batch, slots := make([]*EncodedPublication, n), make([][]Match, n)
	matchBatch := func() {
		for j := range batch {
			batch[j], slots[j] = eps[(i+j)%len(eps)], slots[j][:0]
			if j%9 == 0 {
				batch[j] = nil
			}
		}
		rows(batch, slots)
		i += n
	}
	for range eps {
		matchBatch() // grow every slot to the most any event matches
	}
	if allocs := testing.AllocsPerRun(len(eps), matchBatch); allocs != 0 {
		t.Fatalf("steady-state MatchRecords allocates %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkStoreScan is the scan layer of the `aspe` workload, quiet:
// 4,000 subscriptions, every access metered, one MatchRecords of n
// events per iteration, its records expanded into rows. ns/op is per
// event; reads/event (ciphertext vectors read through the accessor)
// and simus/event are what the batch divides. The live=N sub-benchmarks
// are the sign-test crossover: see benchLive.
func BenchmarkStoreScan(b *testing.B) {
	for _, live := range []int{1, 4, 8, 12, 16, 32, 64} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) { benchLive(b, live) })
	}
	store, eps := workloadBed(b, 4_000)
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			out := make([][]Match, n)
			var recs []core.Record
			batch := func(i int) {
				for j := range out {
					out[j] = out[j][:0]
				}
				at := i * n % len(eps)
				var err error
				if recs, err = store.MatchRecords(eps[at:at+n], recs[:0]); err != nil {
					b.Fatal(err)
				}
				core.AppendRows(out, recs)
			}
			for i := 0; i < len(eps)/n; i++ {
				batch(i) // grow the slots, fill the LLC model
			}
			meter := store.Meter()
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
			b.ReportMetric(float64(d.BytesRead)/float64(store.vecBytes())/events, "reads/event")
			b.ReportMetric(meter.Cost.Micros(d.Cycles)/events, "simus/event")
		})
	}
}

// benchLive scans n events against 1,000 subscriptions on which every
// sign test has exactly n live events: each passes the two bounds of a
// band wider than the domain, then fails the lower bound of a band
// above it. It runs each path on every test — scalar (signTests,
// reading the vector in place) and, where the host has it, kernel
// (signKernel) — so ns/op per event read side by side give the live
// count from which the kernel pays, kernelLive.
func benchLive(b *testing.B, n int) {
	bed := newScanBed(b, 4, 1)
	store := bed.store(true)
	wide := pubsub.Predicate{Attr: bed.nums[0], Op: pubsub.OpBetween, Value: pubsub.Float(-1000), Hi: pubsub.Float(1000)}
	above := pubsub.Predicate{Attr: bed.nums[1], Op: pubsub.OpBetween, Value: pubsub.Float(1000), Hi: pubsub.Float(2000)}
	for i := 0; i < 1_000; i++ {
		if _, err := store.Register(bed.encodeSub(wide, above), uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	eps := make([]*EncodedPublication, n)
	for i := range eps {
		eps[i] = bed.event()
	}
	var out []core.Record
	for _, path := range []struct {
		name string
		from int
	}{{"scalar", scanChunk + 1}, {"kernel", 1}} {
		b.Run(path.name, func(b *testing.B) {
			if path.from <= scanChunk && !haveKernel {
				b.Skip("no sign kernel on this host")
			}
			if out = store.scan(eps, 0, out[:0], path.from); len(out) != 0 {
				b.Fatalf("%d subscriptions matched, want none", len(out))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				out = store.scan(eps, 0, out[:0], path.from)
			}
			b.StopTimer()
			events := float64((b.N + n - 1) / n * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/op")
		})
	}
}
