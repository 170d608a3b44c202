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

// accRead reads arena bytes through the engine's accessor and copies
// them: a paged enclave's view lasts only until the next access.
func accRead(e *Engine) func(off uint64, n int) []byte {
	return func(off uint64, n int) []byte { return bytes.Clone(e.acc.Read(off, n)) }
}

// memRead reads arena bytes from a shadow copy, unmetered.
func memRead(mem []byte) func(off uint64, n int) []byte {
	return func(off uint64, n int) []byte { return mem[off : off+uint64(n)] }
}

// tableSeqs is the link sequence of every child tab's index lists, by
// child, read from its entries.
func tableSeqs(tab *table, read func(off uint64, n int) []byte) map[uint64]int {
	seqs := make(map[uint64]int)
	for j := 0; j < tab.leaves; j++ {
		d := decodeDir(read(tab.dirAt(j), dirEntrySize))
		ents := read(d.leaf, d.count*entrySize)
		for i := 0; i < len(ents); i += entrySize {
			seqs[entryChild(ents[i:])] = int(leUint32(ents[i+4:]))
		}
	}
	return seqs
}

// checkTables asserts that every table is its node's child chain: the
// live children the table's entries name are the chain's, the link
// sequences their entries carry fall along it, below the table's count, and its interval index lists each with the entry its
// stored blob outlines (pubsub.OutlineEncoded), byte for byte
// (checkIndex). The general sentinel has a table, and every table's
// node is in a forest. In every forest, tabled or not, each child's
// parent link names its node and its previous-sibling link its chain
// predecessor.
func checkTables(t testing.TB, e *Engine, read func(off uint64, n int) []byte) {
	t.Helper()
	if e.tables[e.general] == nil {
		t.Fatal("the general sentinel has no table")
	}
	// In offset order: on paged memory the reads must not depend on the
	// map's.
	nodes := slices.Sorted(maps.Keys(e.tables))
	for _, node := range nodes {
		tab := e.tables[node]
		entries := make(map[uint64][]byte)
		seqs := tableSeqs(tab, read)
		last := tab.links
		for c := decodeHeader(read(node, nodeHeaderSize)).child; c != nilOff; {
			seq, ok := seqs[c]
			if !ok || seq >= last {
				t.Fatalf("node %d: child %d has link sequence %d (named: %v), the one before it in the chain %d", node, c, seq, ok, last)
			}
			last = seq
			h := decodeHeader(read(c, nodeHeaderSize))
			attrs, con, ok, err := pubsub.OutlineEncoded(read(c+nodeHeaderSize, int(h.predLen)))
			if err != nil {
				t.Fatalf("node %d: child %d: %v", node, c, err)
			}
			entries[c] = make([]byte, entrySize)
			encodeEntry(entries[c], c, seq, attrs, &con, ok)
			c = h.sibling
		}
		if len(seqs) != len(entries) {
			t.Fatalf("node %d: %d children in the chain, the table names %d", node, len(entries), len(seqs))
		}
		checkIndex(t, node, tab, entries, read)
	}
	// Every node reachable from a sentinel: count the tabled ones, and
	// hold each chain's links.
	stack := append([]uint64{e.general}, slices.Sorted(maps.Values(e.shards))...)
	reached := 0
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h := decodeHeader(read(off, nodeHeaderSize))
		if e.tables[off] != nil {
			reached++
		}
		prev := nilOff
		for c := h.child; c != nilOff; {
			raw := read(c, nodeHeaderSize)
			ch := decodeHeader(raw)
			if ch.parent != off || leUint64(raw[offPrev:]) != prev {
				t.Fatalf("node %d: child %d links parent %d and previous sibling %d, want %d and %d", off, c, ch.parent, leUint64(raw[offPrev:]), off, prev)
			}
			stack = append(stack, c)
			prev, c = c, ch.sibling
		}
	}
	if reached != len(e.tables) {
		t.Fatalf("%d tables, %d on nodes in the forests", len(e.tables), reached)
	}
}

// TestRootTableCompacts: a general shard that cycles through many more
// roots than it ever holds at once keeps its table equal to the chain,
// and the arena holds its peak: the leaves its index empties are
// reused, so the second thousand steps grow the arena by nothing.
func TestRootTableCompacts(t *testing.T) {
	e := newTestEngine(t)
	var ids []uint64
	var size uint64
	for i := 0; i < 2_000; i++ {
		if i == 1_000 {
			size = e.acc.Size()
		}
		lo := float64(i % 500)
		id, err := e.Register(spec(between("price", lo, lo+0.5)), uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if ids = append(ids, id); len(ids) > 100 {
			if err := e.Unregister(ids[0]); err != nil {
				t.Fatal(err)
			}
			ids = ids[1:]
		}
		checkTables(t, e, accRead(e))
	}
	if e.acc.Size() != size {
		t.Fatalf("the second thousand steps grew the arena from %d to %d bytes", size, e.acc.Size())
	}
}

// TestWideNodeTable follows one broad band through the life of its
// table: no table with tableMin-1 children, one built when an insert
// beneath it leaves tableMin; entries dropped where children leave; a
// table cycling through many more children than it holds at once; lone
// walks through it equal to chain walks; and, when Unregister splices
// the band out, its leaves and directory pages released (a second broad
// band that takes its children builds its table in them, the arena not
// growing) and a parent that takes tableMin children in the splice
// building its own.
func TestWideNodeTable(t *testing.T) {
	e := newTestEngine(t)
	register := func(sp pubsub.SubscriptionSpec) uint64 {
		t.Helper()
		id, err := e.Register(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e)
		return id
	}
	narrow := func(k int) pubsub.SubscriptionSpec {
		lo := 1 + float64(k%200)*0.4
		return spec(between("price", lo, lo+0.3))
	}
	broad := register(spec(between("price", 0, 100)))
	wide := e.subIndex[broad]
	var kids []uint64
	for k := 0; k < tableMin-1; k++ {
		kids = append(kids, register(narrow(k)))
	}
	if e.tables[wide] != nil {
		t.Fatalf("a table at %d children", tableMin-1)
	}
	kids = append(kids, register(narrow(tableMin-1)))
	tab := e.tables[wide]
	if tab == nil {
		t.Fatalf("no table at %d children", tableMin)
	}
	if n := len(tableSeqs(tab, accRead(e))); n != tableMin {
		t.Fatalf("a table of %d children, want %d", n, tableMin)
	}

	// Children that leave drop their entries; the table stays, below
	// the threshold too.
	for _, id := range kids[:10] {
		if err := e.Unregister(id); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e)
	}
	kids = kids[10:]
	if n := len(tableSeqs(tab, accRead(e))); n != tableMin-10 {
		t.Fatalf("%d children in the table, want %d", n, tableMin-10)
	}

	// Cycling through 600 more children, at most 100 at once.
	for k := tableMin; k < tableMin+600; k++ {
		if kids = append(kids, register(narrow(k))); len(kids) > 100 {
			if err := e.Unregister(kids[0]); err != nil {
				t.Fatal(err)
			}
			kids = kids[1:]
		}
	}
	checkInvariants(t, e)
	for len(kids) < 200 {
		kids = append(kids, register(narrow(len(kids)+7)))
	}

	// A lone event walks the band's children from its table.
	for p := 0.5; p < 90; p += 3.7 {
		ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(p)})
		got, err := e.MatchAppend(ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.matchPerEvent(ev, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("price %v: table walk vs chain walk: %s", p, firstDiff(got, want))
		}
	}

	// Spliced out: its children are roots again, its leaves and
	// directory pages released.
	var leaves []uint64
	for j := 0; j < tab.leaves; j++ {
		leaves = append(leaves, e.readDir(tab, j).leaf)
	}
	pages := tab.dir
	if err := e.Unregister(broad); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, e)
	if e.tables[wide] != nil {
		t.Fatal("a spliced node kept its table")
	}
	for _, leaf := range leaves {
		if !slices.Contains(e.free[leafSize], leaf) {
			t.Fatalf("index leaf %d was not released", leaf)
		}
	}
	for _, page := range pages {
		if !slices.Contains(e.free[simmem.PageSize], page) {
			t.Fatalf("directory page %d was not released", page)
		}
	}
	size := e.acc.Size()
	register(spec(between("price", 0, 100)))
	if e.acc.Size() != size {
		t.Fatalf("a second broad band grew the arena by %d bytes", e.acc.Size()-size)
	}

	// A node that takes tableMin children in a splice builds its table.
	outer := register(spec(between("volume", 0, 100)))
	inner := register(spec(between("volume", 0, 50)))
	for k := 0; k < tableMin; k++ {
		lo := float64(k) * 0.7
		register(spec(between("volume", lo, lo+0.5)))
	}
	if h := e.readHeader(e.subIndex[inner]); h.parent != e.subIndex[outer] || e.tables[e.subIndex[inner]] == nil {
		t.Fatal("the inner band is not a tabled child of the outer one")
	}
	if err := e.Unregister(inner); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, e)
	if e.tables[e.subIndex[outer]] == nil {
		t.Fatalf("a node given %d children in a splice has no table", tableMin)
	}
}

// TestTableRenumbersPastMaxLinks drives two tables to maxLinks links —
// the general sentinel's, and a broad band's — by setting their counts
// just below it, with gaps left among their children's sequences. The
// next links renumber each table from its chain, oldest first from 0,
// as buildTable sequences it: through an insert for the sentinel, and
// through a splice, child by child, for the band. Every table stays its
// chain (checkTables), lone walks stay chain walks, and the counts
// start again from the chains' lengths.
func TestTableRenumbersPastMaxLinks(t *testing.T) {
	e := newTestEngine(t)
	register := func(sp pubsub.SubscriptionSpec) uint64 {
		t.Helper()
		id, err := e.Register(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e)
		return id
	}
	unregister := func(id uint64) {
		t.Helper()
		if err := e.Unregister(id); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e)
	}
	walks := func() {
		t.Helper()
		for p := 0.5; p < 1400; p += 7.3 {
			ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(p)})
			got, err := e.MatchAppend(ev, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.matchPerEvent(ev, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("price %v: table walk vs chain walk: %s", p, firstDiff(got, want))
			}
		}
	}
	var roots []uint64
	for k := 0; k < 100; k++ {
		lo := 1000 + float64(k)*3
		roots = append(roots, register(spec(between("price", lo, lo+1))))
	}
	broad := register(spec(between("price", 0, 100)))
	inner := register(spec(between("price", 0, 50)))
	for k := 0; k < tableMin; k++ {
		lo := float64(k) * 0.7
		register(spec(between("price", lo, lo+0.5)))
		register(spec(between("price", 50+lo, 50.5+lo)))
	}
	general, band := e.tables[e.general], e.tables[e.subIndex[broad]]
	if band == nil || e.tables[e.subIndex[inner]] == nil {
		t.Fatal("the bands have no tables")
	}
	for _, id := range roots[:50:50] {
		unregister(id)
	}
	roots = roots[50:]
	walks()

	general.links = maxLinks - 2
	for k := 0; k < 5; k++ {
		lo := 2000 + float64(k)*3
		roots = append(roots, register(spec(between("price", lo, lo+1))))
	}
	if general.links > 1000 {
		t.Fatalf("the general table counts %d links after passing %d", general.links, maxLinks)
	}
	walks()

	band.links = maxLinks - 3
	unregister(inner) // its tableMin children relink under the band
	if band.links > 1000 {
		t.Fatalf("the band's table counts %d links after passing %d", band.links, maxLinks)
	}
	walks()
}

// highAcc hands out arena offsets past 4 GiB once high is set, as an
// engine that has grown that far would get them; the bytes behind them
// are never there, so a record placed there would fault on first use.
type highAcc struct {
	simmem.Accessor
	high bool
}

func (a *highAcc) Alloc(n int) (uint64, error) {
	off, err := a.Accessor.Alloc(n)
	if a.high {
		off += 1 << 32
	}
	return off, err
}

// TestArenaPast4GiBRefused: once fresh arena space lies past 4 GiB,
// where no table or directory entry can name it, a Register that needs
// a record is refused before it changes the forest — a new root under
// the general table, a child under a band's table, a node that would
// take a band's children, a second subscriber — and the tables, the
// invariants, the count and every lone walk stay as they were. An
// Unregister needs no fresh record and still goes through, and once
// space is found again the refused subscriptions register.
func TestArenaPast4GiBRefused(t *testing.T) {
	acc := &highAcc{Accessor: simmem.NewPlainAccessor(simmem.DefaultCost())}
	e, err := NewEngine(acc, pubsub.NewSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var roots []uint64
	for k := 0; k < 100; k++ {
		lo := 1000 + float64(k)*3
		id, err := e.Register(spec(between("price", lo, lo+1)), 1)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, id)
	}
	broad, err := e.Register(spec(between("price", 0, 100)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < tableMin; k++ {
		lo := 10 + float64(k)*0.7
		if _, err := e.Register(spec(between("price", lo, lo+0.5)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if e.tables[e.subIndex[broad]] == nil {
		t.Fatal("the band has no table")
	}
	walks := func() {
		t.Helper()
		for p := 0.5; p < 1400; p += 7.3 {
			ev := event(t, e, map[string]pubsub.Value{"price": pubsub.Float(p)})
			got, err := e.MatchAppend(ev, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.matchPerEvent(ev, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("price %v: table walk vs chain walk: %s", p, firstDiff(got, want))
			}
		}
	}
	held := func() {
		t.Helper()
		checkInvariants(t, e)
		checkTables(t, e, accRead(e))
		walks()
	}
	held()

	acc.high = true
	refused := []pubsub.SubscriptionSpec{
		spec(between("price", 2000, 2001)), // a new root
		spec(between("price", 50, 50.5)),   // a child of the band
		spec(between("price", 5, 70)),      // under the band, over its children
		spec(between("price", 1000, 1001)), // a root's second subscriber
	}
	subs := e.Stats().Subscriptions
	for _, sp := range refused {
		if _, err := e.Register(sp, 2); err == nil {
			t.Fatalf("%+v registered past 4 GiB", sp)
		}
		if got := e.Stats().Subscriptions; got != subs {
			t.Fatalf("%+v refused, yet the engine counts %d subscriptions, not %d", sp, got, subs)
		}
		held()
	}
	for _, id := range roots[:10] {
		if err := e.Unregister(id); err != nil {
			t.Fatal(err)
		}
	}
	held()

	acc.high = false
	for _, sp := range refused {
		if _, err := e.Register(sp, 2); err != nil {
			t.Fatal(err)
		}
	}
	held()
}

// TestInsertSkipsUnrelatedRoots: among bands that neither cover nor are
// covered by the newcomer, the insert reads only the index's directory
// — no leaf, no table entry, no root header or blob — and charges one
// predicate per directory entry it tests.
func TestInsertSkipsUnrelatedRoots(t *testing.T) {
	e := newTestEngine(t)
	for i := 0; i < 300; i++ {
		lo := float64(3 * i)
		if _, err := e.Register(spec(between("price", lo, lo+1)), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := pubsub.Normalize(e.Schema(), spec(between("price", 2000, 2001)))
	if err != nil {
		t.Fatal(err)
	}
	tab := e.tables[e.general]
	if tab.leaves < 300/leafEntries {
		t.Fatalf("%d leaves for 300 roots", tab.leaves)
	}
	m := e.acc.Meter()
	before := m.C
	if next, equal, err := e.scanTable(tab, sub); err != nil || next != nilOff || equal || len(e.moved) != 0 {
		t.Fatalf("scanTable = %d, %v, %v, moved %v", next, equal, err, e.moved)
	}
	d := m.C.Sub(before)
	if want := uint64(tab.leaves * dirEntrySize); d.BytesRead != want {
		t.Fatalf("the scan read %d bytes, want the directory's %d", d.BytesRead, want)
	}
	if lines, want := d.LLCHits+d.LLCMisses, uint64((tab.leaves*dirEntrySize+63)/64); lines != want {
		t.Fatalf("the scan looked up %d lines, want %d", lines, want)
	}
	if memCycles := (d.LLCHits+d.LLCMisses)*m.Cost.LLCHitCycles + d.LLCMisses*m.Cost.DRAMCycles; d.Cycles-memCycles != uint64(tab.leaves)*m.Cost.PredicateCycles {
		t.Fatalf("the scan charged %d predicate cycles, want one predicate per directory entry", d.Cycles-memCycles)
	}
}

// TestRootScanOnPagedMemory: on an EPC far smaller than the store, the
// pager evicts — and scrubs — a table page while the insert reads the
// headers and blobs of the roots that page lists. The scan works on its
// copy of the entries, so among 400 always-check roots (prefixes on one
// attribute, no numeric constraint) the inserts build the reference's
// forest in the reference's bytes.
func TestRootScanOnPagedMemory(t *testing.T) {
	dev := newTestDevice(t)
	newTwin := func() (*Engine, *shadowAcc) {
		acc := &shadowAcc{Accessor: launchTestEnclave(t, dev, 3*simmem.PageSize).Memory()}
		e, err := NewEngine(acc, pubsub.NewSchema(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e, acc
	}
	got, gotMem := newTwin()
	ref, refMem := newTwin()
	for i := 0; i < 400; i++ {
		sp := spec(pubsub.Predicate{Attr: "symbol", Op: pubsub.OpPrefix, Value: pubsub.Str(fmt.Sprintf("P%03d", i))})
		subG, err := pubsub.Normalize(got.Schema(), sp)
		if err != nil {
			t.Fatal(err)
		}
		subR, err := pubsub.Normalize(ref.Schema(), sp)
		if err != nil {
			t.Fatal(err)
		}
		idG, errG := got.RegisterNormalized(subG, uint32(i))
		idR, errR := ref.registerRef(subR, uint32(i))
		if errG != nil || errR != nil || idG != idR {
			t.Fatalf("register %d: IDs %d / %d, errors %v / %v", i, idG, idR, errG, errR)
		}
	}
	if !bytes.Equal(gotMem.mem, refMem.mem) {
		t.Fatal("arenas differ")
	}
	if g, r := forestDump(got, gotMem.mem), forestDump(ref, refMem.mem); !slices.Equal(g, r) {
		t.Fatalf("forests differ:\n%v\nreference:\n%v", g, r)
	}
	checkTables(t, got, memRead(gotMem.mem))
	if got.acc.Meter().C.PageFaults == 0 {
		t.Fatal("the store did not page")
	}
}

// widePrelude is the start of every fuzzed store: a broad price band
// over [10, 40] and, as the script's next byte picks, tableMin-1 to
// tableMin+1 disjoint narrow bands beneath it — so a script's first
// inserts and removals take the band across the threshold either way,
// its bands cover some of the narrow ones and move them out of the
// table or cover the broad band itself, and a removal of the first ID
// splices the band out.
func widePrelude(r *scriptReader) []pubsub.SubscriptionSpec {
	specs := []pubsub.SubscriptionSpec{spec(between("price", 10, 40))}
	for k, n := 0, tableMin-1+r.next()%3; k < n; k++ {
		specs = append(specs, spec(between("price", preludeLo(k), preludeHi(k))))
	}
	return specs
}

// preludeLo and preludeHi bound widePrelude's narrow band k. Neither is
// a float32 but the lower bound of k = 0, so a leaf of them keeps its
// largest upper bound rounded up.
func preludeLo(k int) float64 { return 10 + float64(k)*0.4 }
func preludeHi(k int) float64 { return preludeLo(k) + 0.3 }

// scriptReader hands out a fuzz script's bytes, then zeros.
type scriptReader struct{ b []byte }

func (r *scriptReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// scriptBand is a numeric predicate set on attr drawn from the script:
// bounds from a small ladder with ±Inf at its ends, each side absent,
// open or closed, so bands cover, are covered, equal or miss each other.
func scriptBand(r *scriptReader, attr string) []pubsub.Predicate {
	ladder := []float64{math.Inf(-1), 0, 10, 20, 30, 40, 50, math.Inf(1)}
	var ps []pubsub.Predicate
	b := r.next()
	switch b % 3 {
	case 1:
		ps = append(ps, pubsub.Predicate{Attr: attr, Op: pubsub.OpGt, Value: pubsub.Float(ladder[b/3%len(ladder)])})
	case 2:
		ps = append(ps, pubsub.Predicate{Attr: attr, Op: pubsub.OpGe, Value: pubsub.Float(ladder[b/3%len(ladder)])})
	}
	b = r.next()
	switch b % 3 {
	case 1:
		ps = append(ps, pubsub.Predicate{Attr: attr, Op: pubsub.OpLt, Value: pubsub.Float(ladder[b/3%len(ladder)])})
	case 2:
		ps = append(ps, pubsub.Predicate{Attr: attr, Op: pubsub.OpLe, Value: pubsub.Float(ladder[b/3%len(ladder)])})
	}
	if len(ps) == 0 {
		ps = append(ps, pubsub.Predicate{Attr: attr, Op: pubsub.OpGe, Value: pubsub.Float(ladder[b%len(ladder)])})
	}
	return ps
}

// scriptSpec draws one subscription of insertSpec's shapes from the
// script: bands alone or two together, symbol equality and prefixes,
// and a second string attribute beside a band.
func scriptSpec(r *scriptReader) pubsub.SubscriptionSpec {
	numeric := []string{"price", "volume"}
	symbol := func() pubsub.Value { return pubsub.Str([]string{"", "H", "HA", "HAL", "HALO", "IBM"}[r.next()%6]) }
	var sp pubsub.SubscriptionSpec
	switch r.next() % 6 {
	case 0, 1:
		sp.Predicates = scriptBand(r, numeric[r.next()%2])
	case 2:
		sp.Predicates = append(scriptBand(r, "price"), scriptBand(r, "volume")...)
	case 3:
		sp.Predicates = append(scriptBand(r, numeric[r.next()%2]), pubsub.Predicate{Attr: "symbol", Op: pubsub.OpPrefix, Value: symbol()})
	case 4:
		sp.Predicates = []pubsub.Predicate{{Attr: "symbol", Op: pubsub.OpPrefix, Value: symbol()}}
	default:
		sp.Predicates = append(scriptBand(r, "price"), pubsub.Predicate{Attr: []string{"symbol", "venue"}[r.next()%2], Op: pubsub.OpEq, Value: symbol()})
	}
	return sp
}

// FuzzInsertEqualsReference runs a register / unregister script the
// fuzz bytes choose on twin engines — one inserting with insert, one
// with insertRef — on plain and EPC-paged memory under the four option
// sets, each store starting from widePrelude's broad band. After every
// step both return the same IDs and errors, hold the same forest link
// for link in byte-identical arenas, keep every table equal to its
// node's child chain and its index, and the insert's scan through the
// index finds at every table what the whole-table scan finds.
func FuzzInsertEqualsReference(f *testing.F) {
	f.Add([]byte{1, 0, 5, 7, 1, 0, 4, 10, 1, 1, 8, 8, 0, 0})
	f.Add([]byte{1, 2, 2, 14, 1, 2, 5, 11, 1, 2, 8, 8, 1, 3, 1, 4, 0, 1, 0, 0, 1, 5, 2, 3, 0})
	f.Add(bytes.Repeat([]byte{1, 1, 7, 19, 2, 1, 0, 13, 16, 0, 3}, 20))
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
		for _, mem := range memories {
			for _, opts := range []Options{{}, {DisableSharding: true}, {CacheAlign: true}, {PadRecordTo: 300}} {
				newTwin := func() (*Engine, *shadowAcc) {
					acc := &shadowAcc{Accessor: mem.new(t)}
					e, err := NewEngine(acc, pubsub.NewSchema(), opts)
					if err != nil {
						t.Fatal(err)
					}
					return e, acc
				}
				got, gotMem := newTwin()
				ref, refMem := newTwin()
				r := &scriptReader{b: script}
				var live []uint64
				for i, sp := range widePrelude(r) {
					subG, errG := pubsub.Normalize(got.Schema(), sp)
					subR, errR := pubsub.Normalize(ref.Schema(), sp)
					if errG != nil || errR != nil {
						t.Fatal(errG, errR)
					}
					idG, errG := got.RegisterNormalized(subG, uint32(i))
					idR, errR := ref.registerRef(subR, uint32(i))
					if errG != nil || errR != nil || idG != idR {
						t.Fatalf("%s %+v prelude %d: IDs %d / %d, errors %v / %v", mem.name, opts, i, idG, idR, errG, errR)
					}
					live = append(live, idG)
				}
				// After every step the index's scan is held to the table's
				// for the step's subscription, or the last one, and a band
				// across the broad one.
				probe := spec(between("price", 15, 35))
				stepSpec := probe
				for step := 0; len(r.b) > 0; step++ {
					var op string
					if b := r.next(); b%4 == 0 && len(live) > 0 {
						k := r.next() % len(live)
						op = fmt.Sprintf("unregister %d", live[k])
						if errG, errR := got.Unregister(live[k]), ref.Unregister(live[k]); errG != nil || errR != nil {
							t.Fatalf("%s %+v step %d: %s: %v / %v", mem.name, opts, step, op, errG, errR)
						}
						live = append(live[:k], live[k+1:]...)
					} else {
						sp := scriptSpec(r)
						stepSpec = sp
						op = fmt.Sprintf("register %+v", sp.Predicates)
						subG, errG := pubsub.Normalize(got.Schema(), sp)
						subR, errR := pubsub.Normalize(ref.Schema(), sp)
						if (errG == nil) != (errR == nil) {
							t.Fatalf("%s %+v step %d: %s: normalising gives %v / %v", mem.name, opts, step, op, errG, errR)
						}
						if errG != nil {
							continue
						}
						idG, errG := got.RegisterNormalized(subG, uint32(step))
						idR, errR := ref.registerRef(subR, uint32(step))
						if errG != nil || errR != nil || idG != idR {
							t.Fatalf("%s %+v step %d: %s: IDs %d / %d, errors %v / %v", mem.name, opts, step, op, idG, idR, errG, errR)
						}
						live = append(live, idG)
					}
					if !bytes.Equal(gotMem.mem, refMem.mem) {
						t.Fatalf("%s %+v step %d: %s: arenas differ", mem.name, opts, step, op)
					}
					if !reflect.DeepEqual(got.subIndex, ref.subIndex) {
						t.Fatalf("%s %+v step %d: %s: subscription index differs", mem.name, opts, step, op)
					}
					if g, r := forestDump(got, gotMem.mem), forestDump(ref, refMem.mem); !slices.Equal(g, r) {
						t.Fatalf("%s %+v step %d: %s: forests differ:\n%v\nreference:\n%v", mem.name, opts, step, op, g, r)
					}
					checkTables(t, got, memRead(gotMem.mem))
					checkTables(t, ref, memRead(refMem.mem))
					checkIndexedScan(t, got, normalizeAll(t, got, []pubsub.SubscriptionSpec{probe, stepSpec}))
				}
			}
		}
	})
}
