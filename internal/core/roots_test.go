package core

import (
	"bytes"
	"fmt"
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

// checkRootTable asserts that the general shard's root table is its
// root chain: the live entries read newest-first are the chain's roots
// in chain order, each live root has exactly one entry and e.rootAt
// names it, and each entry summarises its root's stored blob
// (pubsub.OutlineEncoded) byte for byte.
func checkRootTable(t testing.TB, e *Engine, read func(off uint64, n int) []byte) {
	t.Helper()
	var table []uint64
	for i := 0; i < e.rootUsed; i++ {
		ent := read(e.rootEntry(i), rootEntrySize)
		off := leUint64(ent)
		if off == nilOff {
			continue
		}
		if j, ok := e.rootAt[off]; !ok || j != i {
			t.Fatalf("root %d has an entry at %d, the engine names %d (ok=%v)", off, i, j, ok)
		}
		h := decodeHeader(read(off, nodeHeaderSize))
		attrs, c, ok, err := pubsub.OutlineEncoded(read(off+nodeHeaderSize, int(h.predLen)))
		if err != nil {
			t.Fatalf("root %d: %v", off, err)
		}
		lo, hi := bounds(&c)
		want := make([]byte, rootEntrySize)
		encodeRoot(want, off, attrs, &c, ok)
		if !bytes.Equal(ent, want) {
			t.Fatalf("root %d: entry % x, its blob's attributes %b, first numeric constraint [%v, %v] (%v) give % x", off, ent, attrs, lo, hi, ok, want)
		}
		table = append(table, off)
	}
	if len(e.rootAt) != len(table) {
		t.Fatalf("%d live entries, the engine names %d roots", len(table), len(e.rootAt))
	}
	var chain []uint64
	for c := decodeHeader(read(e.general, nodeHeaderSize)).child; c != nilOff; c = decodeHeader(read(c, nodeHeaderSize)).sibling {
		chain = append(chain, c)
	}
	slices.Reverse(table)
	if !slices.Equal(table, chain) {
		t.Fatalf("root table, newest first:\n%v\nroot chain:\n%v", table, chain)
	}
}

// TestRootTableCompacts: roots that leave the chain leave dropped
// entries behind, and a full last page is compacted before another is
// taken, so a general shard that cycles through many more roots than it
// ever holds at once keeps one table page and the table equal to the
// chain.
func TestRootTableCompacts(t *testing.T) {
	e := newTestEngine(t)
	var ids []uint64
	for i := 0; i < 2_000; i++ {
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
		checkRootTable(t, e, accRead(e))
	}
	if len(e.rootPages) != 1 {
		t.Fatalf("%d table pages for at most 101 roots", len(e.rootPages))
	}
}

// TestInsertSkipsUnrelatedRoots: among bands that neither cover nor are
// covered by the newcomer, the insert reads only the table — no root
// header or blob — and charges one predicate per root it passes over.
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
	m := e.acc.Meter()
	before := m.C
	if next, equal, err := e.scanRoots(sub); err != nil || next != nilOff || equal || len(e.moved) != 0 {
		t.Fatalf("scanRoots = %d, %v, %v, moved %v", next, equal, err, e.moved)
	}
	d := m.C.Sub(before)
	if want := uint64(300 * rootEntrySize); d.BytesRead != want {
		t.Fatalf("the scan read %d bytes, want the table's %d", d.BytesRead, want)
	}
	if lines := d.LLCHits + d.LLCMisses; lines != 300*rootEntrySize/64 {
		t.Fatalf("the scan looked up %d lines, want %d", lines, 300*rootEntrySize/64)
	}
	if memCycles := (d.LLCHits+d.LLCMisses)*m.Cost.LLCHitCycles + d.LLCMisses*m.Cost.DRAMCycles; d.Cycles-memCycles != 300*m.Cost.PredicateCycles {
		t.Fatalf("the scan charged %d predicate cycles, want one predicate per root", d.Cycles-memCycles)
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
	checkRootTable(t, got, memRead(gotMem.mem))
	if got.acc.Meter().C.PageFaults == 0 {
		t.Fatal("the store did not page")
	}
}

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
// sets. After every step both return the same IDs and errors, hold the
// same forest link for link in byte-identical arenas, and keep the root
// table equal to the root chain.
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
					checkRootTable(t, got, memRead(gotMem.mem))
					checkRootTable(t, ref, memRead(refMem.mem))
				}
			}
		}
	})
}
