package aspe

import (
	"math/bits"
	"slices"
	"testing"

	"scbr/internal/core"
)

// TestMatchRecordsExpandToPerItemRows holds the scan's records to the
// scan per item (matchPerItem), with and without the prefilter, on a
// churned store holding duplicate subscriptions. At batches of 1, 32,
// 64 and 100 items — the last two chunks, the second at Base 64 — with
// holes and an item of the wrong dimension, MatchRecords appends after
// what out held; every record names at least one accepted item of its
// own chunk; and expanded by AppendRows the records give every item
// exactly the per-item scan's matches, in its order, the refused items
// none. A subscription is one record per chunk, so 100 copies of one
// item give its matches twice, each with a full mask.
func TestMatchRecordsExpandToPerItemRows(t *testing.T) {
	for _, prefilter := range []bool{false, true} {
		bed := newScanBed(t, 3, 23)
		store, perItem := bed.store(prefilter), bed.store(prefilter)
		var ids []uint64
		for i := 0; i < 240; i++ {
			es := bed.anySub(i)
			for k := 0; k <= i%2; k++ { // every other one twice
				id, err := store.Register(es, uint32(len(ids)))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := perItem.Register(es, uint32(len(ids))); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		for k := 0; k < 60; k++ {
			j := bed.rng.Intn(len(ids))
			for _, s := range []*Store{store, perItem} {
				if err := s.Unregister(ids[j]); err != nil {
					t.Fatal(err)
				}
			}
			ids = slices.Delete(ids, j, j+1)
		}
		wrongDim := &EncodedPublication{Dim: bed.scheme.Dim() + 2, Point: make([]float64, bed.scheme.Dim()+2)}
		prior := core.Record{SubID: 1 << 60, ClientRef: 77, Base: 1, Mask: 3}
		matched := 0
		for _, n := range []int{1, 32, 64, 100} {
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
			recs, err := store.MatchRecords(eps, []core.Record{prior})
			if err != nil {
				t.Fatal(err)
			}
			if recs[0] != prior {
				t.Fatalf("prefilter %v batch %d: MatchRecords overwrote what out held: %+v", prefilter, n, recs[0])
			}
			recs = recs[1:]
			for k, r := range recs {
				if r.Mask == 0 || r.Base%scanChunk != 0 || int(r.Base) >= n || (n-int(r.Base) < 64 && r.Mask>>uint(n-int(r.Base)) != 0) {
					t.Fatalf("prefilter %v batch %d: record %d = %+v is not of one chunk of the batch", prefilter, n, k, r)
				}
				for m := r.Mask; m != 0; m &= m - 1 {
					if ep := eps[int(r.Base)+bits.TrailingZeros64(m)]; !store.accepts(ep) {
						t.Fatalf("prefilter %v batch %d: record %d = %+v names a refused item", prefilter, n, k, r)
					}
				}
			}
			rows := make([][]Match, n)
			core.AppendRows(rows, recs)
			for i, ep := range eps {
				var want []Match
				if store.accepts(ep) {
					if want, err = perItem.matchPerItem(ep, nil); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(rows[i], want) {
					t.Fatalf("prefilter %v batch %d item %d: records expand to %v, per item %v", prefilter, n, i, rows[i], want)
				}
				matched += len(want)
			}
		}
		if matched == 0 {
			t.Fatalf("prefilter %v: no item matched anything", prefilter)
		}

		for k := 0; k < 8; k++ {
			ep := bed.event()
			recs, err := store.MatchRecords(slices.Repeat([]*EncodedPublication{ep}, 100), nil)
			if err != nil {
				t.Fatal(err)
			}
			one, err := perItem.matchPerItem(ep, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2*len(one) {
				t.Fatalf("prefilter %v: 100 copies of an item that matches %d gave %d records, want %d", prefilter, len(one), len(recs), 2*len(one))
			}
			for j, r := range recs {
				chunk, mask := j/max(len(one), 1), ^uint64(0)
				if chunk == 1 {
					mask = 1<<36 - 1
				}
				if want := one[j%len(one)]; r.Base != uint32(chunk*scanChunk) || r.Mask != mask || r.SubID != want.SubID || r.ClientRef != want.ClientRef {
					t.Fatalf("prefilter %v: copy record %d = %+v, want %v at Base %d with mask %#x", prefilter, j, r, want, chunk*scanChunk, mask)
				}
			}
		}
	}
}
