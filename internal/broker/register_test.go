package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"scbr/internal/attest"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/sgx"
	"scbr/internal/streamhub"
)

// The registration path has one form — a tagged frame of n ≥ 1 items,
// ingested through Router.ingestGroup — and these tests hold it
// to that: the two public ways in (Client.Subscribe, RegisterBulk) are
// the same path, a frame is all or nothing, and what the publisher was
// acknowledged it remembers.

// regSchemes are the matching schemes the registration tests run under.
var regSchemes = []string{scheme.Plain, scheme.ASPE}

// regBed is a served, provisioned router with a publisher encoding
// under the router's scheme, on a restartFixture so that a second
// router can be launched on the same device to restore into.
type regBed struct {
	*restartFixture
	pub    *Publisher
	router *Router
	addr   string
}

func newRegBed(t *testing.T, schemeName string, partitions int) *regBed {
	t.Helper()
	f := newRestartFixture(t)
	f.cfg.Scheme = schemeName
	f.cfg.Partitions = partitions
	b := &regBed{restartFixture: f}
	ias := attest.NewService()
	ias.RegisterPlatform(f.quoter.PlatformID(), f.quoter.AttestationKey())
	var codec scheme.Codec
	if schemeName == scheme.ASPE {
		codec = aspeTestCodec(t)
	}
	b.router = f.newRouter()
	pub, err := NewPublisherWithCodec(ias, b.router.Identity(), codec)
	if err != nil {
		t.Fatal(err)
	}
	b.pub = pub
	b.serve(b.router)
	return b
}

// serve puts r on a listener and (re-)provisions it from the bed's
// publisher, whose default route it becomes.
func (b *regBed) serve(r *Router) {
	b.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.t.Fatal(err)
	}
	go func() { _ = r.Serve(bg, ln) }()
	b.t.Cleanup(func() { r.Close(); _ = ln.Close() })
	b.router, b.addr = r, ln.Addr().String()
	if err := b.pub.ConnectRouter(bg, b.dial()); err != nil {
		b.t.Fatal(err)
	}
}

func (b *regBed) dial() net.Conn {
	b.t.Helper()
	conn, err := net.Dial("tcp", b.addr)
	if err != nil {
		b.t.Fatal(err)
	}
	b.t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// client returns a client bound to the bed's publisher and admitted
// under its own response key, so that it can fetch the group key
// whether or not it ever subscribes itself.
func (b *regBed) client(id string) *Client {
	b.t.Helper()
	c, err := NewClient(id)
	if err != nil {
		b.t.Fatal(err)
	}
	clientSide, pubSide := net.Pipe()
	go b.pub.ServeClient(bg, pubSide)
	c.ConnectPublisher(clientSide, b.pub.PublicKey())
	b.t.Cleanup(c.Close)
	if err := b.pub.Registry().Admit(id, c.keys.Public()); err != nil {
		b.t.Fatal(err)
	}
	return c
}

// restart seals the bed's router, closes it, and restores the blob into
// a fresh router of the same configuration, which takes its place.
func (b *regBed) restart() {
	b.t.Helper()
	blob, err := b.router.SealState()
	if err != nil {
		b.t.Fatal(err)
	}
	b.router.Close()
	r := b.newRouter()
	if err := r.RestoreState(blob); err != nil {
		b.t.Fatal(err)
	}
	b.serve(r)
}

// regSpecs and regQuotes are the differential's workload: eight price
// ceilings, and a batch of quotes that match from all of them down to
// none, closed by one that matches every subscription.
func regSpecs() []pubsub.SubscriptionSpec {
	specs := make([]pubsub.SubscriptionSpec, 8)
	for i := range specs {
		specs[i] = halSpec(float64(10 + 5*i))
	}
	return specs
}

func regQuotes() []Event {
	var events []Event
	for price := 2.0; price < 60; price += 7 {
		events = append(events, Event{Header: halQuote(price), Payload: []byte(fmt.Sprintf("q%02.0f", price))})
	}
	return append(events, Event{Header: halQuote(1), Payload: []byte("end")})
}

// tap binds a delivery channel for c on the bed's current router.
func (b *regBed) tap(c *Client) <-chan Delivery {
	b.t.Helper()
	deliveries, err := tapDeliveries(c, b.dial())
	if err != nil {
		b.t.Fatal(err)
	}
	return deliveries
}

// observeQuotes publishes regQuotes as one batch and returns what the
// tapped client saw, one line per deliver frame: the payload and which
// of the registered specs matched (by position, since the two sides'
// IDs differ).
func (b *regBed) observeQuotes(deliveries <-chan Delivery, ids []uint64) []string {
	b.t.Helper()
	pos := make(map[uint64]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	if err := b.pub.PublishBatch(bg, regQuotes()); err != nil {
		b.t.Fatal(err)
	}
	var seen []string
	for {
		d := recvDelivery(b.t, deliveries)
		if d.Err != nil {
			b.t.Fatal(d.Err)
		}
		matched := make([]int, 0, len(d.SubIDs))
		for _, id := range d.SubIDs {
			i, ok := pos[id]
			if !ok {
				b.t.Fatalf("delivery %q names subscription %d, which was never issued", d.Payload, id)
			}
			matched = append(matched, i)
		}
		sort.Ints(matched)
		seen = append(seen, fmt.Sprintf("%s%v", d.Payload, matched))
		if string(d.Payload) == "end" {
			return seen
		}
	}
}

// regSide is what one way of registering regSpecs left observable.
type regSide struct {
	subscriptions, partitions int
	// bytes is the store footprint, held to at one slice only: the hash
	// that places a blob covers its random nonce, so over three slices
	// the same population lands differently from run to run.
	bytes                   uint64
	transitions             uint64 // the registrations' enclave entries, all slices
	touched                 uint64 // the slices the registrations landed on
	live, restored, resized []string
}

// runRegSide registers regSpecs for one client — through Subscribe, one
// frame each, or through one RegisterBulk — and walks the router through
// a publication batch, a seal → restore, and (from three slices) a
// resize to two.
func runRegSide(t *testing.T, schemeName string, k int, bulk bool) regSide {
	b := newRegBed(t, schemeName, k)
	c := b.client("alice")
	specs := regSpecs()
	before := b.router.MeterSnapshot().Transitions
	var ids []uint64
	if bulk {
		var err error
		if ids, err = b.pub.RegisterBulk(bg, c.ID, "", specs); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, spec := range specs {
			sub, err := c.Subscribe(bg, spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, sub.ID())
		}
	}
	st := b.router.DataPlaneStats()
	side := regSide{
		subscriptions: st.Subscriptions,
		partitions:    st.Partitions,
		transitions:   b.router.MeterSnapshot().Transitions - before,
		touched:       slicesHolding(b.router, ids),
		live:          b.observeQuotes(b.tap(c), ids),
	}
	if k == 1 {
		side.bytes = st.Bytes
	}
	b.restart()
	deliveries := b.tap(c)
	if got := b.router.DataPlaneStats().Subscriptions; got != len(specs) {
		t.Fatalf("restored router holds %d subscriptions, want %d", got, len(specs))
	}
	side.restored = b.observeQuotes(deliveries, ids)
	if k == 3 {
		if _, err := b.router.Repartition(bg, 2); err != nil {
			t.Fatal(err)
		}
		if st := b.router.DataPlaneStats(); st.Partitions != 2 || st.Subscriptions != len(specs) {
			t.Fatalf("after 3 → 2: %+v, want %d subscriptions on 2 slices", st, len(specs))
		}
		side.resized = b.observeQuotes(deliveries, ids)
	}
	// Whichever way they came in, the router's log owns them: each is
	// removable once, by its owner.
	for _, id := range ids {
		reply, err := b.pub.routerRequest("", &Message{Type: TypeRemove, ClientID: c.ID, SubID: id})
		if err != nil {
			t.Fatal(err)
		}
		if err := expect(reply, TypeRemoveOK); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.router.DataPlaneStats().Subscriptions; got != 0 {
		t.Fatalf("%d subscriptions left after removing all", got)
	}
	return side
}

// TestRegisterOnePathDifferential: the same subscriptions registered
// once through Client.Subscribe and once through RegisterBulk, on twin
// routers, are indistinguishable afterwards — the same store, the same
// deliveries for a publication batch, before and after a seal →
// restore and a 3 → 2 resize. The one difference is the declared
// simulated one: a frame costs one enclave entry for its tag
// (attestation slice) plus one per slice its items land on, so a
// Subscribe — a one-item frame — costs 2, and a bulk frame costs
// 1 + slices touched however many items it carries.
func TestRegisterOnePathDifferential(t *testing.T) {
	for _, schemeName := range regSchemes {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/k=%d", schemeName, k), func(t *testing.T) {
				single := runRegSide(t, schemeName, k, false)
				bulk := runRegSide(t, schemeName, k, true)

				n := uint64(len(regSpecs()))
				if single.transitions != 2*n {
					t.Errorf("%d one-item frames cost %d enclave entries, want 2 each", n, single.transitions)
				}
				if bulk.transitions != 1+bulk.touched {
					t.Errorf("one %d-item frame on %d slices cost %d enclave entries, want 1 + slices touched", n, bulk.touched, bulk.transitions)
				}
				single.transitions, bulk.transitions = 0, 0
				single.touched, bulk.touched = 0, 0
				if !reflect.DeepEqual(single, bulk) {
					t.Fatalf("the two ways in differ:\n subscribe %+v\n bulk      %+v", single, bulk)
				}
				if len(single.live) < 2 || single.live[len(single.live)-1] != "end[0 1 2 3 4 5 6 7]" {
					t.Fatalf("the batch did not exercise the subscriptions: %v", single.live)
				}
				if !reflect.DeepEqual(single.restored, single.live) {
					t.Fatalf("seal → restore changed deliveries:\n before %v\n after  %v", single.live, single.restored)
				}
				if k == 3 && !reflect.DeepEqual(single.resized, single.live) {
					t.Fatalf("3 → 2 changed deliveries:\n before %v\n after  %v", single.live, single.resized)
				}
			})
		}
	}
}

// TestRegisterFrameAllOrNothing: a validly tagged frame whose second
// item does not ingest registers nothing. The first item was already in
// a slice store when the second failed; it must be gone again before
// the error reply — not matching, not counted, not sealed — because no
// log entry names it and nothing could ever remove it.
func TestRegisterFrameAllOrNothing(t *testing.T) {
	for _, schemeName := range regSchemes {
		t.Run(schemeName, func(t *testing.T) {
			b := newRegBed(t, schemeName, 3)
			c := b.client("alice")
			kept, err := b.pub.RegisterBulk(bg, c.ID, "", []pubsub.SubscriptionSpec{halSpec(10)})
			if err != nil {
				t.Fatal(err)
			}

			reply, err := b.pub.routerRequest("", registerFrame(b.pub, c.ID, b.blob(halSpec(90)), []byte("garbage")))
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type != TypeError || !strings.Contains(reply.Err, "batch item 1") {
				t.Fatalf("frame with a bad second item: reply %+v", reply)
			}
			if st := b.router.DataPlaneStats(); st.Subscriptions != 1 {
				t.Fatalf("data plane holds %d subscriptions after the rejected frame, want the 1 from before", st.Subscriptions)
			}
			// A quote only the rolled-back item matches delivers nothing;
			// the next one, which the kept subscription matches, arrives
			// first.
			deliveries := b.tap(c)
			if err := b.pub.PublishBatch(bg, []Event{
				{Header: halQuote(80), Payload: []byte("orphan only")},
				{Header: halQuote(5), Payload: []byte("kept")},
			}); err != nil {
				t.Fatal(err)
			}
			if d := recvDelivery(t, deliveries); d.Err != nil || string(d.Payload) != "kept" || !reflect.DeepEqual(d.SubIDs, kept) {
				t.Fatalf("first delivery = %q for %v, want \"kept\" for %v", d.Payload, d.SubIDs, kept)
			}
			// Nothing of the frame reaches sealed state either.
			reply, err = b.pub.routerRequest("", &Message{Type: TypeRemove, ClientID: c.ID, SubID: kept[0]})
			if err != nil {
				t.Fatal(err)
			}
			if err := expect(reply, TypeRemoveOK); err != nil {
				t.Fatal(err)
			}
			b.restart()
			if st := b.router.DataPlaneStats(); st.Subscriptions != 0 {
				t.Fatalf("restored router holds %d subscriptions, want 0", st.Subscriptions)
			}
		})
	}
}

// blob encodes spec as the bed's publisher puts it in a register frame.
func (b *regBed) blob(spec pubsub.SubscriptionSpec) []byte {
	b.t.Helper()
	enc, err := b.pub.codec.EncodeSubscription(spec)
	if err != nil {
		b.t.Fatal(err)
	}
	if b.pub.codec.Capabilities().SealedExchange {
		if enc, err = b.pub.skSealer.Seal(enc); err != nil {
			b.t.Fatal(err)
		}
	}
	return enc
}

// sliceOf is the slice the bed's router places a blob of client's on.
func (b *regBed) sliceOf(client string, blob []byte) int {
	return b.router.hub.SliceForShard(b.router.hub.ShardForKey([]byte(client), blob))
}

// TestRouterStatsUnderRegistration: the router's store figures —
// DataPlaneStats, RecommendPartitions and SliceFootprints — read each
// slice under its partition lock, so they may run while registrations
// and removals write the stores (the race detector holds them to it),
// and once the writers stop they count exactly what is registered.
func TestRouterStatsUnderRegistration(t *testing.T) {
	for _, schemeName := range regSchemes {
		t.Run(schemeName, func(t *testing.T) {
			b := newRegBed(t, schemeName, 2)
			c := b.client("alice")
			done := make(chan struct{})
			read := make(chan error, 1)
			go func() {
				for {
					select {
					case <-done:
						read <- nil
						return
					default:
					}
					st := b.router.DataPlaneStats()
					if k := b.router.RecommendPartitions(); k < 1 {
						read <- fmt.Errorf("RecommendPartitions = %d", k)
						return
					}
					if fps := b.router.SliceFootprints(); len(fps) != 2 || st.Partitions != 2 {
						read <- fmt.Errorf("%d footprints, %d partitions, want 2", len(fps), st.Partitions)
						return
					}
				}
			}()
			var live []uint64
			for round := 0; round < 4; round++ {
				ids, err := b.pub.RegisterBulk(bg, c.ID, "", regSpecs())
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, ids...)
				for _, id := range live[:len(ids)/2] {
					reply, err := b.pub.routerRequest("", &Message{Type: TypeRemove, ClientID: c.ID, SubID: id})
					if err != nil {
						t.Fatal(err)
					}
					if err := expect(reply, TypeRemoveOK); err != nil {
						t.Fatal(err)
					}
				}
				live = live[len(ids)/2:]
			}
			close(done)
			if err := <-read; err != nil {
				t.Fatal(err)
			}
			st := b.router.DataPlaneStats()
			want := make([]int, 2)
			for _, id := range live {
				s, ok := b.router.hub.OwnerSlice(id)
				if !ok {
					t.Fatalf("registered ID %d is owned by no slice", id)
				}
				want[s]++
			}
			if st.Subscriptions != len(live) || !reflect.DeepEqual(st.PerPartition, want) {
				t.Fatalf("data plane counts %d (%v per slice), want %d (%v)", st.Subscriptions, st.PerPartition, len(live), want)
			}
			var storeBytes uint64
			for i, fp := range b.router.SliceFootprints() {
				if fp.Subscriptions != want[i] {
					t.Fatalf("slice %d footprint counts %d subscriptions, want %d", i, fp.Subscriptions, want[i])
				}
				storeBytes += fp.StoreBytes
			}
			if storeBytes != st.Bytes {
				t.Fatalf("footprints sum to %d store bytes, DataPlaneStats reports %d", storeBytes, st.Bytes)
			}
		})
	}
}

// TestRegisterFrameAllOrNothingAcrossSlices: the slices a frame touches
// ingest side by side, and a bad item on one of them undoes the good
// items on the others. The frame carries two good items on each of two
// slices and, between them, a bad one on the third; afterwards no slice
// holds any of it — not the stores (each slice's count as before), not
// the hub's owner index, not the registration log — and a quote only
// the good items match delivers nothing.
func TestRegisterFrameAllOrNothingAcrossSlices(t *testing.T) {
	for _, schemeName := range regSchemes {
		t.Run(schemeName, func(t *testing.T) {
			b := newRegBed(t, schemeName, 3)
			c := b.client("alice")
			kept, err := b.pub.RegisterBulk(bg, c.ID, "", []pubsub.SubscriptionSpec{halSpec(10)})
			if err != nil {
				t.Fatal(err)
			}

			// Two good blobs on each of two slices; a bad one on the third.
			bySlice := make(map[int][][]byte)
			var goodSlices []int
			for len(goodSlices) < 2 {
				blob := b.blob(halSpec(90))
				s := b.sliceOf(c.ID, blob)
				if bySlice[s] = append(bySlice[s], blob); len(bySlice[s]) == 2 {
					goodSlices = append(goodSlices, s)
				}
			}
			badSlice := 3 - goodSlices[0] - goodSlices[1]
			var bad []byte
			for i := 0; bad == nil; i++ {
				if cand := []byte(fmt.Sprintf("garbage %d", i)); b.sliceOf(c.ID, cand) == badSlice {
					bad = cand
				}
			}
			good := append(bySlice[goodSlices[0]][:2:2], bySlice[goodSlices[1]][:2]...)
			frame := [][]byte{good[0], good[2], bad, good[1], good[3]}

			perSlice := b.router.DataPlaneStats().PerPartition
			reply, err := b.pub.routerRequest("", registerFrame(b.pub, c.ID, frame...))
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type != TypeError || !strings.Contains(reply.Err, "batch item 2") {
				t.Fatalf("frame with a bad item on slice %d: reply %+v, want the refusal of item 2", badSlice, reply)
			}
			if st := b.router.DataPlaneStats(); st.Subscriptions != 1 || !reflect.DeepEqual(st.PerPartition, perSlice) {
				t.Fatalf("data plane holds %d subscriptions (%v per slice) after the rejected frame, want the 1 from before (%v)", st.Subscriptions, st.PerPartition, perSlice)
			}
			b.router.ctlMu.RLock()
			logged := len(b.router.regLog)
			b.router.ctlMu.RUnlock()
			if logged != 1 {
				t.Fatalf("registration log holds %d entries, want the 1 from before", logged)
			}

			// The same good items alone are issued each shard's next IDs;
			// the ones the failed frame had issued just before them must
			// be owned by no slice.
			reply, err = b.pub.routerRequest("", registerFrame(b.pub, c.ID, good...))
			if err != nil {
				t.Fatal(err)
			}
			if err := expect(reply, TypeRegisterBatchOK); err != nil {
				t.Fatal(err)
			}
			perShard := make(map[int]uint64)
			for _, id := range reply.SubIDs {
				perShard[streamhub.ShardOf(id)]++
			}
			for _, id := range reply.SubIDs {
				if s, live := b.router.hub.OwnerSlice(id - perShard[streamhub.ShardOf(id)]); live {
					t.Fatalf("rolled-back ID %d is still owned by slice %d", id-perShard[streamhub.ShardOf(id)], s)
				}
			}
			for _, id := range reply.SubIDs {
				remove := &Message{Type: TypeRemove, ClientID: c.ID, SubID: id}
				if reply, err := b.pub.routerRequest("", remove); err != nil || expect(reply, TypeRemoveOK) != nil {
					t.Fatalf("removing %d: %v %+v", id, err, reply)
				}
			}

			deliveries := b.tap(c)
			if err := b.pub.PublishBatch(bg, []Event{
				{Header: halQuote(80), Payload: []byte("rolled back only")},
				{Header: halQuote(5), Payload: []byte("kept")},
			}); err != nil {
				t.Fatal(err)
			}
			if d := recvDelivery(t, deliveries); d.Err != nil || string(d.Payload) != "kept" || !reflect.DeepEqual(d.SubIDs, kept) {
				t.Fatalf("first delivery = %q for %v, want \"kept\" for %v", d.Payload, d.SubIDs, kept)
			}
		})
	}
}

// TestRegisterFrameIDsMatchOneItemFrames: ingesting a frame's slices
// side by side issues the IDs one-item frames would. The same blobs go
// to twin routers (one placement seed) once as one frame and once as
// one frame per blob; both acknowledge the same IDs in item order and
// deliver the same matches for a publication batch.
func TestRegisterFrameIDsMatchOneItemFrames(t *testing.T) {
	for _, schemeName := range regSchemes {
		t.Run(schemeName, func(t *testing.T) {
			b := newRegBed(t, schemeName, 3)
			c := b.client("alice")
			// Blobs place by a hash over their random nonce: draw until
			// the frame spans more than one slice and puts two items on
			// one shard, whose order alone then decides their IDs.
			var blobs [][]byte
			for spans, shares := false, false; !spans || !shares; {
				blobs = blobs[:0]
				spans, shares = false, false
				shards := make(map[int]bool)
				for _, spec := range regSpecs() {
					blob := b.blob(spec)
					blobs = append(blobs, blob)
					spans = spans || b.sliceOf(c.ID, blob) != b.sliceOf(c.ID, blobs[0])
					shard := b.router.hub.ShardForKey([]byte(c.ID), blob)
					shares = shares || shards[shard]
					shards[shard] = true
				}
			}
			register := func(frames ...[][]byte) []uint64 {
				t.Helper()
				var ids []uint64
				for _, frame := range frames {
					reply, err := b.pub.routerRequest("", registerFrame(b.pub, c.ID, frame...))
					if err != nil {
						t.Fatal(err)
					}
					if err := expect(reply, TypeRegisterBatchOK); err != nil {
						t.Fatal(err)
					}
					ids = append(ids, reply.SubIDs...)
				}
				return ids
			}

			frameIDs := register(blobs)
			frameSeen := b.observeQuotes(b.tap(c), frameIDs)

			b.serve(b.newRouter()) // the twin: same configuration, same SK
			perItem := make([][][]byte, len(blobs))
			for i, blob := range blobs {
				perItem[i] = [][]byte{blob}
			}
			itemIDs := register(perItem...)
			if !reflect.DeepEqual(frameIDs, itemIDs) {
				t.Fatalf("one frame was issued %v, one-item frames %v", frameIDs, itemIDs)
			}
			if itemSeen := b.observeQuotes(b.tap(c), itemIDs); !reflect.DeepEqual(frameSeen, itemSeen) {
				t.Fatalf("deliveries differ:\n one frame        %v\n one-item frames  %v", frameSeen, itemSeen)
			}
		})
	}
}

// fatCodec inflates every subscription encoding to size bytes, so that
// two subscriptions need two frames.
type fatCodec struct {
	scheme.Codec
	size int
}

func (c fatCodec) EncodeSubscription(pubsub.SubscriptionSpec) ([]byte, error) {
	return make([]byte, c.size), nil
}

func (fatCodec) Capabilities() scheme.Capabilities { return scheme.Capabilities{} }

// TestRegisterBulkKeepsAckedFrames: when a later frame of a bulk load
// fails, the IDs the router already issued come back with the error and
// the publisher owns them, so the client can still unsubscribe them.
func TestRegisterBulkKeepsAckedFrames(t *testing.T) {
	plain, err := scheme.NewCodec(scheme.Plain)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisherWithCodec(attest.NewService(), attest.Identity{}, fatCodec{plain, batchFrameBudget/2 + 1})
	if err != nil {
		t.Fatal(err)
	}
	admitTestClient(t, pub, "bulk")
	pubSide, routerSide := net.Pipe()
	defer pubSide.Close()
	defer routerSide.Close()
	pub.routerConn = newRouterLink(newBufferedConn(pubSide))

	// The router's part: acknowledge the first frame, refuse the second.
	frames := make(chan int, 2)
	go func() {
		conn := newBufferedConn(routerSide)
		for i := 0; i < 2; i++ {
			m, err := Recv(conn)
			if err != nil {
				return
			}
			frames <- len(m.Items)
			if i == 0 {
				_ = Send(conn, &Message{Type: TypeRegisterBatchOK, SubIDs: []uint64{71}})
			} else {
				sendErr(conn, ErrNotProvisioned)
			}
		}
	}()

	ids, err := pub.RegisterBulk(bg, "bulk", "", makeBulkSpecs(2))
	if !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("err = %v, want the second frame's ErrNotProvisioned", err)
	}
	if !reflect.DeepEqual(ids, []uint64{71}) {
		t.Fatalf("ids = %v, want the acknowledged frame's [71]", ids)
	}
	if a, b := <-frames, <-frames; a != 1 || b != 1 {
		t.Fatalf("frames carried %d and %d items, want 1 and 1", a, b)
	}
	if owner := pub.subOwner[subKey("", 71)]; owner != "bulk" {
		t.Fatalf("publisher records owner %q for the acknowledged subscription, want \"bulk\"", owner)
	}
}

// TestRegisterFrameSplit pins the one frame splitter PublishBatch and
// the registration path share, as the pure function it is.
func TestRegisterFrameSplit(t *testing.T) {
	item := func(blob, payload int) BatchItem {
		return BatchItem{Blob: make([]byte, blob), Payload: make([]byte, payload)}
	}
	for _, tc := range []struct {
		name   string
		items  []BatchItem
		budget int
		want   []int // items per frame
	}{
		{"empty input, no frame", nil, 10, nil},
		{"all fit", []BatchItem{item(3, 0), item(3, 0), item(4, 0)}, 10, []int{3}},
		{"cut where the budget is passed", []BatchItem{item(6, 0), item(4, 0), item(1, 0)}, 10, []int{2, 1}},
		{"payload counts", []BatchItem{item(3, 3), item(3, 3), item(3, 3)}, 12, []int{2, 1}},
		{"an oversized item travels alone", []BatchItem{item(1, 0), item(50, 0), item(1, 0), item(1, 0)}, 10, []int{1, 1, 2}},
		{"oversized first", []BatchItem{item(50, 0), item(1, 0)}, 10, []int{1, 1}},
	} {
		// Tag every item so that order is checkable.
		for i := range tc.items {
			if len(tc.items[i].Blob) > 0 {
				tc.items[i].Blob[0] = byte(i)
			}
		}
		var got []int
		next := 0
		for rest := tc.items; len(rest) > 0; {
			var frame []BatchItem
			frame, rest = nextFrame(rest, tc.budget)
			if len(frame) == 0 {
				t.Fatalf("%s: empty frame with %d items left", tc.name, len(rest))
			}
			for _, it := range frame {
				if it.Blob[0] != byte(next) {
					t.Fatalf("%s: item %d out of order", tc.name, next)
				}
				next++
			}
			got = append(got, len(frame))
		}
		if !reflect.DeepEqual(got, tc.want) || next != len(tc.items) {
			t.Errorf("%s: frames of %v items (%d in all), want %v", tc.name, got, next, tc.want)
		}
	}
}

// TestRestoreRejectsTamperedBlob: one flipped bit anywhere in the
// sealed blob fails the unseal — which is what lets replay trust every
// entry without a tag of its own.
func TestRestoreRejectsTamperedBlob(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	f.populate(r1, 2)
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[at] ^= 0x10
		r2 := f.newRouter()
		if err := r2.RestoreState(bad); !errors.Is(err, ErrStateRollback) {
			t.Fatalf("blob tampered at byte %d: err = %v, want ErrStateRollback", at, err)
		}
		if got := r2.DataPlaneStats().Subscriptions; got != 0 {
			t.Fatalf("tampered blob left %d subscriptions", got)
		}
	}
}

// TestRestoreRequiresPlacementTable: SealState always writes the
// placement table, so a sealed state without one is not an older
// format to be waved through — it fails the shard-count check like
// any other blob that disagrees with the restoring router.
func TestRestoreRequiresPlacementTable(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	pub, _ := f.populate(r1, 1)
	r1.ctlMu.RLock()
	state := routerState{Version: stateVersion, SK: pubSK(pub).Bytes(), Log: append([]logEntry(nil), r1.regLog...)}
	r1.ctlMu.RUnlock()
	raw, err := json.Marshal(&state)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r1.Enclave().Seal(sgx.SealToMRENCLAVE, raw, counterAAD(f.dev.IncrementCounter(stateCounter)))
	if err != nil {
		t.Fatal(err)
	}
	r2 := f.newRouter()
	err = r2.RestoreState(blob)
	if err == nil || !strings.Contains(err.Error(), "restore with the sealing shard count") {
		t.Fatalf("blob without a placement table: err = %v, want the shard-count refusal", err)
	}
	if got := r2.DataPlaneStats().Subscriptions; got != 0 {
		t.Fatalf("refused blob left %d subscriptions", got)
	}
}

// TestRepartitionExportBoundToSlicePair: a shard export is sealed with
// its source → destination pair as associated data, so the untrusted
// host cannot feed one move's blob to another.
func TestRepartitionExportBoundToSlicePair(t *testing.T) {
	f := newRestartFixture(t)
	f.cfg.Partitions = 3
	r := f.newRouter()
	t.Cleanup(r.Close)
	sealed, err := r.parts[0].enclave.Seal(sgx.SealToMRENCLAVE, []byte(`{"from":0,"to":1}`), migrationAAD(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.parts[1].enclave.Unseal(sealed, migrationAAD(0, 1)); err != nil {
		t.Fatalf("the pair's own export does not open: %v", err)
	}
	for _, pair := range [][2]int{{0, 2}, {1, 0}, {2, 1}} {
		if _, err := r.parts[pair[1]].enclave.Unseal(sealed, migrationAAD(pair[0], pair[1])); err == nil {
			t.Fatalf("an export sealed for 0→1 opened for %d→%d", pair[0], pair[1])
		}
	}
}
