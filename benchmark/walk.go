// The layer walk. It replays the first events of the workload's own
// stream through the same sequence of exported calls the publish path
// makes — encode, seal, frame, open, enter, match, frame, open — one
// span per call, so each layer's cost is priced from outside with no
// change to the program. The same database is also held in a store
// over a bare arena with no LLC or pager model, to price the simulator
// itself.

package main

import (
	"bytes"
	"errors"
	"fmt"

	"scbr/internal/broker"
	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
	"scbr/internal/streamhub"
	"scbr/internal/wire"
)

// bareAccessor is a simmem.Accessor over a plain arena: reads and
// writes touch the bytes and nothing else. Its meter exists only
// because stores read the cost model through it; no access is charged.
type bareAccessor struct {
	arena *simmem.Arena
	meter *simmem.Meter
}

func newBareAccessor() *bareAccessor {
	return &bareAccessor{arena: simmem.NewArena(), meter: simmem.NewMeter(simmem.DefaultCost())}
}

func (a *bareAccessor) Alloc(n int) (uint64, error)   { return a.arena.Alloc(n) }
func (a *bareAccessor) Read(off uint64, n int) []byte { return a.arena.Bytes(off, n) }
func (a *bareAccessor) Write(off uint64, b []byte)    { copy(a.arena.Bytes(off, len(b)), b) }
func (a *bareAccessor) Charge(uint64)                 {}
func (a *bareAccessor) Meter() *simmem.Meter          { return a.meter }
func (a *bareAccessor) Size() uint64                  { return a.arena.Size() }

// walkTimedSubs is how many inserts (at full database size) and
// removals the registration layers are priced over.
const walkTimedSubs = 256

const (
	walkFillerRef   uint32 = 0
	walkListenerRef uint32 = 1
)

// walkRig is the walk's own copy of the data plane's parts.
type walkRig struct {
	w        workload
	sealed   bool
	codec    scheme.Codec
	sk, gk   *scrypto.SymmetricKey
	enclaves []*sgx.Enclave
	openers  []*scrypto.Opener
	rings    []*sgx.Ring
	hub      *streamhub.Hub // slices over each enclave's metered memory
	bare     *streamhub.Hub // the same slices over bare arenas
	subs     []sub          // everything registered, for the brute-force count
	ids      []uint64       // hub IDs in registration order
	allID    uint64
	probeID  uint64
	spans    *spanBuf
}

// newWalkRig launches the enclaves, builds both stores and registers
// the database (the workload's fillers plus the listener's two
// subscriptions) into each, timing the last inserts.
func newWalkRig(w workload, seed int64, fillers []sub, spans *spanBuf) (*walkRig, error) {
	backend, err := scheme.Lookup(w.scheme)
	if err != nil {
		return nil, err
	}
	r := &walkRig{w: w, sealed: backend.Caps.SealedExchange, spans: spans}
	if r.codec, err = scheme.NewCodec(w.scheme, schemeOptions(seed)...); err != nil {
		return nil, err
	}
	if r.sk, err = scrypto.NewSymmetricKey(nil); err != nil {
		return nil, err
	}
	if r.gk, err = scrypto.NewSymmetricKey(nil); err != nil {
		return nil, err
	}
	dev, err := sgx.NewDevice(nil, simmem.DefaultCost())
	if err != nil {
		return nil, err
	}
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return nil, err
	}
	params, err := r.codec.Params()
	if err != nil {
		return nil, err
	}
	schema, bareSchema := pubsub.NewSchema(), pubsub.NewSchema()
	var slices, bareSlices []scheme.Slice
	for i := 0; i < w.partitions; i++ {
		enclave, err := dev.Launch([]byte("scbr benchmark walk image"), signer.Public(),
			sgx.EnclaveConfig{EPCBytes: broker.SliceEPCShare(0, w.partitions)})
		if err != nil {
			return nil, err
		}
		slice, err := backend.NewSlice(enclave.Memory(), schema, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := enclave.Ecall(func() error { return slice.Configure(params) }); err != nil {
			return nil, err
		}
		bareSlice, err := backend.NewSlice(newBareAccessor(), bareSchema, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := bareSlice.Configure(params); err != nil {
			return nil, err
		}
		opener, err := scrypto.NewOpener(r.sk)
		if err != nil {
			return nil, err
		}
		ring, err := sgx.NewRing(128)
		if err != nil {
			return nil, err
		}
		r.enclaves = append(r.enclaves, enclave)
		r.openers = append(r.openers, opener)
		r.rings = append(r.rings, ring)
		slices = append(slices, slice)
		bareSlices = append(bareSlices, bareSlice)
	}
	if r.hub, err = streamhub.NewFromSlices(schema, slices); err != nil {
		return nil, err
	}
	if r.bare, err = streamhub.NewFromSlices(bareSchema, bareSlices); err != nil {
		return nil, err
	}

	for i, s := range fillers {
		if _, err := r.register(s, fillerClientID, walkFillerRef, i >= len(fillers)-walkTimedSubs); err != nil {
			return nil, fmt.Errorf("walk: registering filler %d: %w", i, err)
		}
	}
	if r.allID, err = r.register(matchAllSub, listenerID, walkListenerRef, false); err != nil {
		return nil, err
	}
	if r.probeID, err = r.register(probeSub, listenerID, walkListenerRef, false); err != nil {
		return nil, err
	}
	return r, nil
}

// register places one subscription the way the router does — the shard
// from a hash of the client and the blob as it travels, the slice from
// the placement map — and inserts it into both stores.
func (r *walkRig) register(s sub, clientID string, ref uint32, timed bool) (uint64, error) {
	enc, err := r.codec.EncodeSubscription(s.spec())
	if err != nil {
		return 0, err
	}
	blob := enc
	if r.sealed {
		if blob, err = scrypto.Seal(r.sk, enc); err != nil {
			return 0, err
		}
	}
	shard := r.hub.ShardForKey([]byte(clientID), blob)
	target := r.hub.SliceForShard(shard)
	var id uint64
	insert := func() error {
		var err error
		id, err = r.hub.RegisterEncodedAt(shard, target, enc, ref)
		return err
	}
	if timed {
		e := r.spans.open(spEcallControl, 0, 0)
		err = r.enclaves[target].Ecall(func() error {
			h := r.spans.open(spRegister, e, 0)
			defer r.spans.close(h)
			return insert()
		})
		r.spans.close(e)
	} else {
		err = r.enclaves[target].Ecall(insert)
	}
	if err != nil {
		return 0, err
	}
	bareID, err := r.bare.RegisterEncodedAt(shard, target, enc, ref)
	if err != nil {
		return 0, err
	}
	if bareID != id {
		return 0, fmt.Errorf("walk: stores disagree on a subscription ID (%d vs %d)", id, bareID)
	}
	r.subs = append(r.subs, s)
	r.ids = append(r.ids, id)
	return id, nil
}

// walkCounts is what the walk counted alongside its spans.
type walkCounts struct {
	events, calls, deliveries uint64
	matches                   uint64 // matched subscriptions over all events
	publishBytes              uint64 // publish frames, with their length prefix
	deliverBytes              uint64
	miscount                  uint64 // events whose match count the oracle rejects
	skipped                   uint64 // aspe: events not held to the brute-force count
}

// run walks n events in publish calls of the workload's batch size.
func (r *walkRig) run(seed int64, n int) (walkCounts, error) {
	var c walkCounts
	sp := r.spans
	k, batch := r.w.partitions, r.w.batch
	es := newEventStream(seed)
	evs := make([]event, batch)
	hdr := pubsub.EventSpec{}
	payload := make([]byte, r.w.payload)
	items := make([]broker.BatchItem, batch)
	plain := make([][][]byte, k) // [slice][item] opened headers
	out := make([][][]core.MatchResult, k)
	bareOut := make([][][]core.MatchResult, k)
	for p := 0; p < k; p++ {
		plain[p] = make([][]byte, batch)
		out[p] = make([][]core.MatchResult, batch)
		bareOut[p] = make([][]core.MatchResult, batch)
	}
	var frame, back bytes.Buffer
	var frameBuf, ringBuf []byte
	var subIDs []uint64

	for seq := uint64(0); seq < uint64(n); {
		first := seq
		nb := batch
		if rem := n - int(seq); rem < nb {
			nb = rem
		}
		root := sp.open(spPublication, 0, first)
		for i := 0; i < nb; i++ {
			evs[i] = es.next()
			evs[i].header(&hdr)
			h := sp.open(spEncodeEvent, root, seq)
			raw, err := r.codec.EncodeEvent(hdr)
			sp.close(h)
			if err != nil {
				return c, err
			}
			blob := raw
			if r.sealed {
				h = sp.open(spSealHeader, root, seq)
				blob, err = scrypto.Seal(r.sk, raw)
				sp.close(h)
				if err != nil {
					return c, err
				}
			}
			fillPayload(payload, seq, 0, 0)
			h = sp.open(spSealPayload, root, seq)
			sealedPayload, err := scrypto.Seal(r.gk, payload)
			sp.close(h)
			if err != nil {
				return c, err
			}
			items[i] = broker.BatchItem{Blob: blob, Payload: sealedPayload}
			seq++
		}
		msg := &broker.Message{Type: broker.TypePublishBatch, Scheme: r.w.scheme, Items: items[:nb], Epoch: 1}
		if batch == 1 {
			msg = &broker.Message{Type: broker.TypePublish, Scheme: r.w.scheme, Blob: items[0].Blob, Payload: items[0].Payload, Epoch: 1}
		}
		frame.Reset()
		h := sp.open(spSendPublish, root, first)
		err := broker.Send(&frame, msg)
		sp.close(h)
		if err != nil {
			return c, err
		}
		c.publishBytes += uint64(frame.Len())
		raw := append([]byte(nil), frame.Bytes()[4:]...) // the frame body, as a ring would carry it

		// The bare framing under the codec: the same bytes, no JSON.
		back.Reset()
		h = sp.open(spFrameRoundtrip, 0, first)
		if err := wire.WriteFrame(&back, raw); err != nil {
			return c, err
		}
		frameBuf, err = wire.ReadFrameAppend(&back, frameBuf)
		sp.close(h)
		if err != nil {
			return c, err
		}

		h = sp.open(spRecvPublish, root, first)
		got, err := broker.Recv(&frame)
		sp.close(h)
		if err != nil {
			return c, err
		}
		blobs := make([][]byte, 0, nb)
		payloads := make([][]byte, 0, nb)
		if got.Type == broker.TypePublishBatch {
			for i := range got.Items {
				blobs = append(blobs, got.Items[i].Blob)
				payloads = append(payloads, got.Items[i].Payload)
			}
		} else {
			blobs, payloads = append(blobs, got.Blob), append(payloads, got.Payload)
		}

		for p := 0; p < k; p++ {
			for i := 0; i < nb; i++ {
				out[p][i], bareOut[p][i] = out[p][i][:0], bareOut[p][i][:0]
			}
			// The switchless router hands the frame to the slice's resident
			// worker through a ring; the synchronous one enters the enclave.
			// The ring is priced on every workload, but is only on the
			// publication's path (parented on it) where the workload uses it.
			ringParent := int32(0)
			if r.w.switchless {
				ringParent = root
			}
			h = sp.open(spRingPushPop, ringParent, first)
			if err := r.rings[p].Push(raw); err != nil {
				return c, err
			}
			var ok bool
			ringBuf, ok = r.rings[p].Pop(ringBuf)
			sp.close(h)
			if !ok {
				return c, errors.New("walk: ring closed")
			}
			encs := blobs
			matchSlice := func(parent int32) error {
				if r.sealed {
					for i := 0; i < nb; i++ {
						o := sp.open(spOpenHeader, parent, first+uint64(i))
						opened, err := r.openers[p].OpenAppend(blobs[i], plain[p][i][:0])
						sp.close(o)
						if err != nil {
							return err
						}
						plain[p][i] = opened
					}
					encs = plain[p][:nb]
				}
				m := sp.open(spMatch, parent, first)
				err := r.hub.MatchEncodedBatchIn(p, encs, out[p][:nb])
				sp.close(m)
				return err
			}
			if r.w.switchless {
				err = matchSlice(root)
			} else {
				e := sp.open(spEcallMatch, root, first)
				err = r.enclaves[p].Ecall(func() error { return matchSlice(e) })
				sp.close(e)
			}
			if err != nil {
				return c, err
			}
			h = sp.open(spMatchBare, 0, first)
			err = r.bare.MatchEncodedBatchIn(p, encs, bareOut[p][:nb])
			sp.close(h)
			if err != nil {
				return c, err
			}
		}

		// Merge, check against brute force, and walk the delivery of
		// whatever the listener's subscriptions matched.
		for i := 0; i < nb; i++ {
			subIDs = subIDs[:0]
			matched, bareMatched := 0, 0
			for p := 0; p < k; p++ {
				matched += len(out[p][i])
				bareMatched += len(bareOut[p][i])
				for _, m := range out[p][i] {
					if m.ClientRef == walkListenerRef {
						subIDs = append(subIDs, m.SubID)
					}
				}
			}
			c.matches += uint64(matched)
			if matched != bareMatched {
				c.miscount++
			} else if r.sealed {
				want := 0
				for _, s := range r.subs {
					if s.matches(&evs[i]) {
						want++
					}
				}
				if want != matched {
					c.miscount++
				}
			} else {
				c.skipped++ // ciphertext matching is only held to itself here; the live oracle checks the probe
			}
			if len(subIDs) == 0 {
				continue
			}
			evSeq := first + uint64(i)
			frame.Reset()
			h = sp.open(spSendDeliver, root, evSeq)
			err = broker.Send(&frame, &broker.Message{Type: broker.TypeDeliver, SubIDs: subIDs, Epoch: 1, Cursor: evSeq + 1, Payload: payloads[i]})
			sp.close(h)
			if err != nil {
				return c, err
			}
			c.deliverBytes += uint64(frame.Len())
			h = sp.open(spRecvDeliver, root, evSeq)
			dm, err := broker.Recv(&frame)
			sp.close(h)
			if err != nil {
				return c, err
			}
			h = sp.open(spOpenPayload, root, evSeq)
			opened, err := scrypto.Open(r.gk, dm.Payload)
			sp.close(h)
			if err != nil {
				return c, err
			}
			fillPayload(payload, evSeq, 0, 0)
			if !bytes.Equal(opened, payload) {
				c.miscount++
			}
			c.deliveries++
		}
		sp.close(root)
		c.events += uint64(nb)
		c.calls++
	}
	return c, nil
}

// unregisterTimed removes the last walkTimedSubs fillers from the
// metered store, one ecall each, as the router's remove path does.
func (r *walkRig) unregisterTimed() error {
	n := len(r.ids) - 2 // the listener's two subscriptions stay
	for i := n - walkTimedSubs; i < n; i++ {
		if i < 0 {
			continue
		}
		id := r.ids[i]
		target, ok := r.hub.OwnerSlice(id)
		if !ok {
			return fmt.Errorf("walk: subscription %d has no owner", id)
		}
		e := r.spans.open(spEcallControl, 0, 0)
		err := r.enclaves[target].Ecall(func() error {
			h := r.spans.open(spUnregister, e, 0)
			defer r.spans.close(h)
			return r.hub.UnregisterIn(id)
		})
		r.spans.close(e)
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *walkRig) close() {
	for _, e := range r.enclaves {
		e.Terminate()
	}
}
