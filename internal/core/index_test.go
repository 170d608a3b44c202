package core

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// checkIndex asserts that tab's index lists the entries of its node's
// chain, by child: every child's entry sits in exactly one leaf, byte
// for byte; every leaf is sorted by key and no key is below the one
// before it, leaf to leaf; and
// every directory entry is exact — the leaf's first key, the float32
// rounding outward of its largest and smallest summarised upper bound,
// the union and intersection of its attribute sets, its count and
// flags. The directory has the pages its leaves need, one at least.
func checkIndex(t testing.TB, node uint64, tab *table, entries map[uint64][]byte, read func(off uint64, n int) []byte) {
	t.Helper()
	if len(tab.dir) == 0 || len(tab.dir)*dirPerPage < tab.leaves {
		t.Fatalf("node %d: %d leaves on %d directory pages", node, tab.leaves, len(tab.dir))
	}
	seen := make(map[uint64]bool, len(entries))
	var prev entryKey
	for j := 0; j < tab.leaves; j++ {
		d := decodeDir(read(tab.dirAt(j), dirEntrySize))
		if d.count < 1 || d.count > leafEntries {
			t.Fatalf("node %d: leaf %d lists %d entries", node, j, d.count)
		}
		ents := read(d.leaf, d.count*entrySize)
		maxHi, minHi := math.Inf(-1), math.Inf(1)
		want := leafSummary{inter: ^pubsub.AttrSet(0), leaf: d.leaf, count: d.count, flags: dirOneAttr}
		for i := 0; i < d.count; i++ {
			ent := ents[i*entrySize : (i+1)*entrySize]
			off := entryChild(ent)
			outline, ok := entries[off]
			if !ok || seen[off] {
				t.Fatalf("node %d: leaf %d lists child %d, in the chain: %v, listed before: %v", node, j, off, ok, seen[off])
			}
			seen[off] = true
			if !bytes.Equal(ent, outline) {
				t.Fatalf("node %d: leaf %d lists child %d as % x, its blob outlines % x", node, j, off, ent, outline)
			}
			k := keyOfEntry(ent)
			if (j > 0 || i > 0) && k.compare(prev) < 0 {
				t.Fatalf("node %d: leaf %d entry %d has key %+v, below the one before it, %+v", node, j, i, k, prev)
			}
			prev = k
			attrs := pubsub.AttrSet(leUint32(ent[offEntryAttrs:]))
			want.union, want.inter = want.union|attrs, want.inter&attrs
			attr := pubsub.AttrID(ent[offEntryAttr]) | pubsub.AttrID(ent[offEntryAttr+1])<<8
			lo := math.Float64frombits(leUint64(ent[offEntryLo:]))
			hi := math.Float64frombits(leUint64(ent[offEntryHi:]))
			if ent[offEntryFlags]&entrySummary == 0 || math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
				if want.flags |= dirAlways; i == 0 {
					want.flags |= dirFirstAlways
				}
				continue
			}
			if i == 0 {
				want.firstLo, want.firstAttr = lo, attr
			} else if attr != want.firstAttr {
				want.flags &^= dirOneAttr
			}
			maxHi, minHi = max(maxHi, hi), min(minHi, hi)
		}
		// Rounded outward: the nearest float32 on the far side of each bound.
		if float64(d.maxHi) < maxHi || !math.IsInf(maxHi, -1) && float64(math.Nextafter32(d.maxHi, float32(math.Inf(-1)))) >= maxHi {
			t.Fatalf("node %d: leaf %d keeps largest upper bound %v for %v", node, j, d.maxHi, maxHi)
		}
		if float64(d.minHi) > minHi || !math.IsInf(minHi, 1) && float64(math.Nextafter32(d.minHi, float32(math.Inf(1)))) <= minHi {
			t.Fatalf("node %d: leaf %d keeps smallest upper bound %v for %v", node, j, d.minHi, minHi)
		}
		want.maxHi, want.minHi = d.maxHi, d.minHi
		if math.Float64bits(d.firstLo) != math.Float64bits(want.firstLo) || d != want {
			t.Fatalf("node %d: directory entry %d is %+v, its leaf gives %+v", node, j, d, want)
		}
	}
	if len(seen) != len(entries) {
		t.Fatalf("node %d: the index lists %d children, the chain %d", node, len(seen), len(entries))
	}
}

// scanTableRef is the table scan the insert made before the index, its
// entries derived from the chain: every child of the tabled node, in
// chain order, is summarised from its stored blob and tested against
// that summary, and the children it cannot rule out are read and tested
// in that order.
func (e *Engine) scanTableRef(node uint64, sub *pubsub.Subscription) (next uint64, equal bool, err error) {
	e.moved = e.moved[:0]
	var nc newcomer
	nc.load(sub)
	for c := e.readHeader(node).child; c != nilOff; {
		h := e.readHeader(c)
		attrs, con, ok := e.outlineFromBlob(c, h)
		ent := make([]byte, entrySize)
		encodeEntry(ent, c, 0, attrs, &con, ok)
		if !nc.ruledOut(ent) {
			_, childCovers, subCovers, err := e.coverTest(c, sub)
			if err != nil || childCovers {
				return c, subCovers, err
			}
			if subCovers {
				e.moved = append(e.moved, c)
			}
		}
		c = h.sibling
	}
	return nilOff, false, nil
}

// checkIndexedScan holds scanTable to scanTableRef at every table of e,
// in node order, for every subscription in subs: the same coverer, equal
// flag and error, and the same covered children in the same order.
func checkIndexedScan(t testing.TB, e *Engine, subs []*pubsub.Subscription) {
	t.Helper()
	for _, node := range slices.Sorted(maps.Keys(e.tables)) {
		tab := e.tables[node]
		for _, sub := range subs {
			next, equal, err := e.scanTable(tab, sub)
			moved := slices.Clone(e.moved)
			refNext, refEqual, refErr := e.scanTableRef(node, sub)
			if next != refNext || equal != refEqual || fmt.Sprint(err) != fmt.Sprint(refErr) || !slices.Equal(moved, e.moved) {
				t.Fatalf("node %d, %+v: indexed scan %d, %v, %v, moved %v; table scan %d, %v, %v, moved %v",
					node, sub.Constraints, next, equal, err, moved, refNext, refEqual, refErr, e.moved)
			}
		}
	}
}

// normalizeAll normalises every satisfiable spec into e's schema.
func normalizeAll(t testing.TB, e *Engine, specs []pubsub.SubscriptionSpec) []*pubsub.Subscription {
	t.Helper()
	var subs []*pubsub.Subscription
	for _, sp := range specs {
		if sub, err := pubsub.Normalize(e.Schema(), sp); err == nil {
			subs = append(subs, sub)
		}
	}
	return subs
}

// TestIndexedScanEqualsTableScan holds the insert's scan through the
// index to the whole-table scan it replaced, on plain and EPC-paged
// memory: at every table of the walkCorpora stores and of the wide
// prelude's, for each of the store's own subscriptions and for bands and
// prefixes drawn around them. FuzzInsertEqualsReference holds it after
// every step of its scripts.
func TestIndexedScanEqualsTableScan(t *testing.T) {
	memories := []struct {
		name string
		new  func(t *testing.T) simmem.Accessor
	}{
		{"plain", func(*testing.T) simmem.Accessor { return newPlainAcc() }},
		{"enclave-paging", func(t *testing.T) simmem.Accessor {
			return launchTestEnclave(t, newTestDevice(t), 8*simmem.PageSize).Memory()
		}},
	}
	rng := rand.New(rand.NewSource(45))
	var probes []pubsub.SubscriptionSpec
	for i := 0; i < 200; i++ {
		probes = append(probes, insertSpec(rng))
	}
	r := &scriptReader{b: make([]byte, 600)}
	rng.Read(r.b)
	for len(r.b) > 0 {
		probes = append(probes, scriptSpec(r))
	}
	// Points, and bands that end where one starts: a leaf whose first
	// lower bound equals the newcomer's upper one may hold its coverer
	// or a point it covers.
	for _, v := range []float64{0, 10, 20, 30, 40, 50, 10.4, 12, 14.4} {
		probes = append(probes, spec(between("price", v, v)), spec(between("price", v-1, v)), spec(between("volume", v, v)))
	}
	for _, mem := range memories {
		for _, c := range walkCorpora(21) {
			t.Run(c.name+"/"+mem.name, func(t *testing.T) {
				e := c.build(t, mem.new(t))
				checkIndexedScan(t, e, normalizeAll(t, e, append(slices.Clone(c.specs), probes...)))
			})
		}
		for _, n := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("wide-prelude/%d/%s", n, mem.name), func(t *testing.T) {
				e, err := NewEngine(mem.new(t), pubsub.NewSchema(), Options{})
				if err != nil {
					t.Fatal(err)
				}
				prelude := widePrelude(&scriptReader{b: []byte{byte(n)}})
				for i, sub := range normalizeAll(t, e, prelude) {
					if _, err := e.RegisterNormalized(sub, uint32(i)); err != nil {
						t.Fatal(err)
					}
				}
				checkTables(t, e, accRead(e))
				checkIndexedScan(t, e, normalizeAll(t, e, append(prelude, probes...)))
			})
		}
	}
}

// wideBands draws BenchmarkRegisterForest's wide-row inserts: 300 price
// bands 10 wide, inside wideEngine's broad band or outside it.
func wideBands(where string) []pubsub.SubscriptionSpec {
	rng := rand.New(rand.NewSource(2))
	specs := make([]pubsub.SubscriptionSpec, 300)
	for i := range specs {
		lo := wideLo + rng.Float64()*(wideHi-wideLo-10) // [lo, lo+10] inside the broad band
		if where == "out" {
			// [lo, lo+10] with lo in [0, 10) or (60, 90]: not inside it.
			if lo = rng.Float64() * 40; lo >= wideLo-10 {
				lo += wideHi - (wideLo - 10)
			}
		}
		specs[i] = spec(between("price", lo, lo+10))
	}
	return specs
}

// TestWideInsertLookups guards the index's gain on the wide rows of
// BenchmarkRegisterForest: a band inserted inside or outside the broad
// band over 5,900 subscriptions, in blocks of registerBlock removed
// again, looks up fewer than 100 lines per insert (the whole-table scan
// looked up 416 and 860).
func TestWideInsertLookups(t *testing.T) {
	for _, where := range []string{"in", "out"} {
		e, _, _ := wideEngine(t, 5_900)
		specs := wideBands(where)
		meter := e.Accessor().Meter()
		var looked uint64
		for i := 0; i < len(specs); i += registerBlock {
			before := meter.C
			ids := make([]uint64, 0, registerBlock)
			for _, sp := range specs[i : i+registerBlock] {
				id, err := e.Register(sp, 1)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			looked += lookups(meter.C.Sub(before))
			for _, id := range ids {
				if err := e.Unregister(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if per := float64(looked) / float64(len(specs)); per >= 100 {
			t.Errorf("wide/%s: %.1f line lookups per insert, want under 100", where, per)
		}
	}
}

// TestRoundOutward holds down32 and up32 to math.Nextafter32 around
// float32 values, their midpoints, the denormals and the ends of the
// float32 range.
func TestRoundOutward(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 1e-50, -1e-50, 1e300, -1e300,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.SmallestNonzeroFloat32 / 3, -math.SmallestNonzeroFloat32 / 3, math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 2000; i++ {
		f := math.Float32frombits(rng.Uint32())
		if f != f {
			continue
		}
		next := float64(math.Nextafter32(f, float32(math.Inf(1))))
		vals = append(vals, float64(f), (float64(f)+next)/2, math.Nextafter(float64(f), math.Inf(1)), math.Nextafter(float64(f), math.Inf(-1)))
	}
	for _, v := range vals {
		if v != v {
			continue
		}
		down, up := down32(v), up32(v)
		if float64(down) > v || float64(math.Nextafter32(down, float32(math.Inf(1)))) <= v && !math.IsInf(float64(down), 1) {
			t.Fatalf("down32(%v) = %v", v, down)
		}
		if float64(up) < v || float64(math.Nextafter32(up, float32(math.Inf(-1)))) >= v && !math.IsInf(float64(up), -1) {
			t.Fatalf("up32(%v) = %v", v, up)
		}
	}
}

// TestIndexDirectoryGrows takes the general shard's index past one
// directory page and back: 6,000 disjoint bands in shuffled order split
// leaves all over the directory, which takes a third page; removing
// nine in ten empties and merges leaves. The index is held to its
// table, and the indexed scan to the table scan, at each end.
func TestIndexDirectoryGrows(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(6))
	ids := make([]uint64, 0, 6000)
	for _, k := range rng.Perm(6000) {
		lo := float64(3 * k)
		id, err := e.Register(spec(between("price", lo, lo+1)), uint32(k))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	tab := e.tables[e.general]
	if len(tab.dir) < 2 {
		t.Fatalf("%d leaves on %d directory pages", tab.leaves, len(tab.dir))
	}
	probes := []pubsub.SubscriptionSpec{
		spec(between("price", 0, 1)), spec(between("price", 9000, 9001)), spec(between("price", 8999, 9002)),
		spec(between("price", 100, 400)), spec(between("price", 20000, 20001)), spec(between("volume", 1, 2)),
	}
	checkTables(t, e, accRead(e))
	checkIndexedScan(t, e, normalizeAll(t, e, probes))
	leaves := tab.leaves
	for i, id := range ids {
		if i%10 != 0 {
			if err := e.Unregister(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tab.leaves >= leaves/4 {
		t.Fatalf("%d leaves for %d children, %d before the removals", tab.leaves, len(tableSeqs(tab, accRead(e))), leaves)
	}
	checkTables(t, e, accRead(e))
	checkIndexedScan(t, e, normalizeAll(t, e, probes))
}

// TestChainOrder holds inChainOrder to a comparison sort of the
// candidates by link sequence, latest first: for candidate counts on
// both sides of insertionMax, where it turns from insertion to radix
// sort, where the index below the sequence widens a bit (31, 32, 33)
// and about a radix digit (255, 256, 257); for sequences that
// cross the 8-, 16- and 24-bit digit boundaries, that reach the largest
// an entry holds, and that spread over all it holds. One engine serves
// every case, so its key buffers are reused in turn.
func TestChainOrder(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(8))
	counts := []int{0, 1, 2, 31, 32, 33, insertionMax - 1, insertionMax, insertionMax + 1, 255, 256, 257, 333, 1000}
	for _, links := range []int{1000, 1<<16 + 500, 1<<24 + 500, maxLinks, 0} {
		for _, n := range counts {
			cands := make([]tableCand, n)
			seqs := make(map[uint64]bool, n)
			for i, p := range rng.Perm(1000)[:n] {
				seq := uint64(links - 1 - p)
				for links == 0 && (seq == 0 || seqs[seq]) { // spread: any distinct sequences below maxLinks
					seq = uint64(rng.Int63n(maxLinks))
				}
				seqs[seq] = true
				cands[i] = tableCand{seq: seq, off: uint64(p), live: rng.Uint64()}
			}
			want := slices.Clone(cands)
			slices.SortFunc(want, func(a, b tableCand) int { return cmp.Compare(b.seq, a.seq) })
			if got := e.inChainOrder(cands); !slices.Equal(got, want) {
				t.Fatalf("%d links, %d candidates: %v, want %v", links, n, got, want)
			}
		}
	}
}
