package broker

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/simmem"
	"scbr/internal/streamhub"
	"scbr/internal/workload"
)

// BenchmarkSliceGroup prices the two halves of one slice's drained
// group: slice-ns/event is matchSliceBatch under the partition lock —
// one store pass over the group and handing each job its records — and
// merge-ns/event is deliver for every job of the group. The slice
// holds e80a1 subscriptions over a quote corpus of five symbols, so an
// event matches hundreds, alternately of a listening client and of one
// that never listened; the group's events are e80a1 publications,
// handed to the store as encoded (no envelope to open). records/event
// and matches/event are what the store emits.
func BenchmarkSliceGroup(b *testing.B) {
	for _, tc := range []struct {
		scheme            string
		subs, jobs, items int
	}{
		{scheme.Plain, 10_000, 2, 32},
		{scheme.ASPE, 4_000, 8, 8},
		{scheme.Plain, 64, 64, 1}, // pipe's shape: a group of one-item jobs
	} {
		b.Run(fmt.Sprintf("%s/subs=%d/%dx%d", tc.scheme, tc.subs, tc.jobs, tc.items), func(b *testing.B) {
			benchSliceGroup(b, tc.scheme, tc.subs, tc.jobs, tc.items)
		})
	}
}

func benchSliceGroup(b *testing.B, name string, subs, jobs, items int) {
	qs, err := workload.NewQuoteSet(1, 5, 250)
	if err != nil {
		b.Fatal(err)
	}
	wspec, err := workload.SpecByName("e80a1")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(wspec, qs, 17)
	if err != nil {
		b.Fatal(err)
	}
	events := gen.Publications(256)
	codec, err := scheme.NewCodec(name, scheme.WithAttrs(workload.QuoteAttrs(1)...), scheme.WithSeed(5), scheme.WithCalibration(events...))
	if err != nil {
		b.Fatal(err)
	}
	backend, err := scheme.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	schema := pubsub.NewSchema()
	slice, err := backend.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), schema, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	params, err := codec.Params()
	if err != nil {
		b.Fatal(err)
	}
	if err := slice.Configure(params); err != nil {
		b.Fatal(err)
	}
	for i, sp := range gen.Subscriptions(subs) {
		enc, err := codec.EncodeSubscription(sp)
		if err != nil {
			b.Fatal(err)
		}
		if err := slice.RegisterEncodedAssigned(enc, uint32(i%2), uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	hub, err := streamhub.NewFromSlices(schema, []scheme.Slice{slice})
	if err != nil {
		b.Fatal(err)
	}
	table := newDeliveryTable(4, 64, OverflowDropOldest, -1)
	defer table.close(time.Second)
	table.clients["a"] = &clientState{name: "a"}
	p := &partition{idx: 0, slice: slice}
	r := &Router{hub: hub, backend: &scheme.Backend{}, delivery: table, refName: []string{"a", "q"}, parts: []*partition{p}}

	msgs := make([]*Message, len(events)/items)
	for m := range msgs {
		msgs[m] = &Message{Type: TypePublishBatch}
		for _, ev := range events[m*items:][:items] {
			enc, err := codec.EncodeEvent(ev)
			if err != nil {
				b.Fatal(err)
			}
			msgs[m].Items = append(msgs[m].Items, BatchItem{Blob: enc, Payload: make([]byte, 16)})
		}
	}
	var fan fanout
	group := make([]*matchJob, jobs)
	var sliceNs, mergeNs time.Duration
	records, matches := 0, 0
	run := func(i int) {
		for j := range group {
			group[j] = r.acquireJob(msgs[(i*jobs+j)%len(msgs)])
		}
		t0 := time.Now()
		p.mu.Lock()
		r.matchSliceBatch(p, group, nil)
		p.mu.Unlock()
		t1 := time.Now()
		for _, job := range group {
			r.deliver(&fan, job.parts, job.payloads, 1, false)
		}
		sliceNs, mergeNs = sliceNs+t1.Sub(t0), mergeNs+time.Since(t1)
		for _, job := range group {
			r.releaseJob(job)
		}
	}
	for i := range len(msgs) / jobs {
		run(i) // grow the jobs' slots, the fanout and the store's scratch
		var encs [][]byte
		for j := range jobs {
			forEachPublication(msgs[(i*jobs+j)%len(msgs)], func(blob, _ []byte) { encs = append(encs, blob) })
		}
		recs, err := hub.MatchRecordsIn(0, encs, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			records++
			matches += bits.OnesCount64(rec.Mask)
		}
	}
	warm := float64(len(msgs) / jobs * jobs * items)
	sliceNs, mergeNs = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		run(i)
	}
	perEvent := float64(b.N * jobs * items)
	b.ReportMetric(float64(sliceNs.Nanoseconds())/perEvent, "slice-ns/event")
	b.ReportMetric(float64(mergeNs.Nanoseconds())/perEvent, "merge-ns/event")
	b.ReportMetric(float64(records)/warm, "records/event")
	b.ReportMetric(float64(matches)/warm, "matches/event")
}
