package broker

import (
	"context"
	"crypto/ecdh"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"scbr/internal/attest"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
)

// Publisher is the service provider's data source: it owns the
// public/private pair PK/PK⁻¹ clients encrypt subscriptions under, the
// symmetric key SK it shares with the enclave, the payload group key,
// the matching-scheme codec that encodes subscriptions and headers for
// the router's stores, and the client admission registry.
type Publisher struct {
	keys     *scrypto.KeyPair
	sk       *scrypto.SymmetricKey
	skSealer *scrypto.Sealer // seals headers and subscriptions under sk
	group    *scrypto.GroupKeyManager
	registry *ClientRegistry
	ias      *attest.Service
	routerID attest.Identity
	codec    scheme.Codec

	mu         sync.Mutex
	routerConn *routerLink            // default route (ConnectRouter / SetDefaultRouter)
	routers    map[string]*routerLink // named routes into a federated overlay
	subOwner   map[string]string      // (router, subscription) → owning client
}

// Sealed-box labels (scrypto.SealTo) of the subscription path: {s}PK,
// client to publisher, and the group key, publisher to client.
const (
	subscriptionLabel = "scbr/broker/subscription/v1"
	groupKeyLabel     = "scbr/broker/group-key/v1"
)

// subKey keys the ownership table: subscription IDs are per-router,
// so two routers of a federation may issue the same ID.
func subKey(router string, id uint64) string {
	return fmt.Sprintf("%s\x00%d", router, id)
}

// NewPublisher creates a publisher that will only provision SK into
// enclaves matching routerID, as vouched for by ias. It encodes under
// the default sgx-plain matching scheme; use NewPublisherWithCodec for
// another scheme.
func NewPublisher(ias *attest.Service, routerID attest.Identity) (*Publisher, error) {
	return NewPublisherWithCodec(ias, routerID, nil)
}

// NewPublisherWithCodec creates a publisher encoding under the given
// matching-scheme codec (nil means the default sgx-plain codec). The
// codec's scheme ID is announced during attested provisioning and
// stamped on every registration and publication frame; routers running
// a different scheme reject them with ErrSchemeMismatch.
func NewPublisherWithCodec(ias *attest.Service, routerID attest.Identity, codec scheme.Codec) (*Publisher, error) {
	if codec == nil {
		var err error
		codec, err = scheme.NewCodec(scheme.Plain)
		if err != nil {
			return nil, fmt.Errorf("broker: building default scheme codec: %w", err)
		}
	}
	keys, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return nil, fmt.Errorf("broker: generating publisher keys: %w", err)
	}
	sk, err := scrypto.NewSymmetricKey(nil)
	if err != nil {
		return nil, fmt.Errorf("broker: generating SK: %w", err)
	}
	skSealer, err := scrypto.NewSealer(sk)
	if err != nil {
		return nil, fmt.Errorf("broker: preparing SK: %w", err)
	}
	group, err := scrypto.NewGroupKeyManager(nil)
	if err != nil {
		return nil, fmt.Errorf("broker: creating group key manager: %w", err)
	}
	return &Publisher{
		keys:     keys,
		sk:       sk,
		skSealer: skSealer,
		group:    group,
		registry: NewClientRegistry(),
		ias:      ias,
		routerID: routerID,
		codec:    codec,
		routers:  make(map[string]*routerLink),
		subOwner: make(map[string]string),
	}, nil
}

// Scheme returns the canonical ID of the publisher's matching scheme.
func (p *Publisher) Scheme() string { return scheme.Canonical(p.codec.Name()) }

// PublicKey is PK, distributed to clients out of band (e.g. with the
// service contract).
func (p *Publisher) PublicKey() *ecdh.PublicKey { return p.keys.Public() }

// Registry exposes the admission database.
func (p *Publisher) Registry() *ClientRegistry { return p.registry }

// GroupEpoch returns the current payload key epoch.
func (p *Publisher) GroupEpoch() uint64 { return p.group.Epoch() }

// ConnectRouter attests the router enclave over conn and provisions SK
// (which also keys registration tags). Cancelling ctx during that
// exchange severs the connection; attestation failures wrap
// ErrAttestationFailed and keep the underlying attest sentinel in the
// chain. The connection is then retained for registrations and
// publications, and its frames are written behind the caller: a call
// returns once its frames are queued, frames leave in call order
// whatever their type, and a failed write closes the connection and
// is returned by every later call on it (Flush waits for the writes).
func (p *Publisher) ConnectRouter(ctx context.Context, raw net.Conn) error {
	conn := newBufferedConn(raw) // replies are read through it from here on
	if err := p.provisionRouter(ctx, conn); err != nil {
		return err
	}
	p.mu.Lock()
	p.routerConn = newRouterLink(conn)
	p.mu.Unlock()
	return nil
}

// ConnectRouterNamed attests and provisions one router of a federated
// overlay and retains the connection under the router's overlay name,
// so subscriptions from clients homed on that router register there.
// Every router of the overlay must be provisioned (they share one SK)
// — call this once per router, then SetDefaultRouter to choose where
// this publisher's own publications enter the overlay.
func (p *Publisher) ConnectRouterNamed(ctx context.Context, name string, raw net.Conn) error {
	if name == "" {
		return errors.New("broker: router name must not be empty")
	}
	conn := newBufferedConn(raw) // replies are read through it from here on
	if err := p.provisionRouter(ctx, conn); err != nil {
		return err
	}
	link := newRouterLink(conn)
	p.mu.Lock()
	p.routers[name] = link
	if p.routerConn == nil {
		p.routerConn = link
	}
	p.mu.Unlock()
	return nil
}

// SetDefaultRouter selects which named router this publisher's
// publications enter the overlay through.
func (p *Publisher) SetDefaultRouter(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	link, ok := p.routers[name]
	if !ok {
		return fmt.Errorf("%w: publisher knows no router %q", ErrNotConnected, name)
	}
	p.routerConn = link
	return nil
}

// provisionRouter runs the attest-and-provision exchange on conn.
func (p *Publisher) provisionRouter(ctx context.Context, conn net.Conn) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	release := ctxGuard(ctx, conn)
	defer release()
	if err := Send(conn, &Message{Type: TypeProvision, Scheme: p.Scheme()}); err != nil {
		return ctxErr(ctx, err)
	}
	req, err := Recv(conn)
	if err != nil {
		return ctxErr(ctx, err)
	}
	if err := expect(req, TypeProvisionReq); err != nil {
		return err
	}
	schemeParams, err := p.codec.Params()
	if err != nil {
		return fmt.Errorf("broker: encoding scheme parameters: %w", err)
	}
	bundle, err := json.Marshal(provisionPayload{
		SK:     p.sk.Bytes(),
		Scheme: p.Scheme(),
		Params: schemeParams,
	})
	if err != nil {
		return fmt.Errorf("broker: encoding provision bundle: %w", err)
	}
	blob, err := attest.ProvisionSecret(p.ias, p.routerID,
		&attest.ProvisioningRequest{Quote: req.Quote, PubKey: req.PubKey}, bundle)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrAttestationFailed, err)
	}
	if err := Send(conn, &Message{Type: TypeProvisionKey, Blob: blob}); err != nil {
		return ctxErr(ctx, err)
	}
	ok, err := Recv(conn)
	if err != nil {
		return ctxErr(ctx, err)
	}
	return expect(ok, TypeProvisionOK)
}

// ServeClient handles one client connection: subscription admission
// (step ① → ②), group key requests, and unsubscriptions. It returns
// when the client disconnects or ctx is cancelled (which severs the
// connection).
func (p *Publisher) ServeClient(ctx context.Context, conn net.Conn) {
	release := ctxGuard(ctx, conn)
	defer release()
	for {
		m, err := Recv(conn)
		if err != nil {
			return
		}
		switch m.Type {
		case TypeSubscribe:
			err = p.handleSubscribe(conn, m)
		case TypeGroupKey:
			err = p.handleGroupKey(conn, m)
		case TypeUnsubscribe:
			err = p.handleUnsubscribe(conn, m)
		default:
			sendErrf(conn, "unexpected message %q", m.Type)
			return
		}
		if err != nil {
			sendErr(conn, err)
		}
	}
}

// handleSubscribe implements steps ① and ②: decrypt {s}PK, run
// admission control, and register the subscription with the router as
// a one-item frame.
func (p *Publisher) handleSubscribe(conn net.Conn, m *Message) error {
	rec, err := p.admit(m)
	if err != nil {
		return err
	}
	plain, err := scrypto.OpenSealed(p.keys.Private, subscriptionLabel, m.Blob)
	if err != nil {
		return fmt.Errorf("decrypting subscription: %w", err)
	}
	spec, err := pubsub.DecodeSubscriptionSpec(plain)
	if err != nil {
		return fmt.Errorf("invalid subscription: %w", err)
	}
	// Register on the client's home router (m.Router; the default
	// route when unset), so in a federated overlay the subscription
	// lives where the client listens.
	ids, err := p.register(m.Router, m.ClientID, []pubsub.SubscriptionSpec{spec})
	if err != nil {
		return err
	}
	// Hand the client the payload group key alongside the ack, plus
	// the deployment's scheme ID so the client can tag its listens.
	keyBlob, epoch, err := p.groupKeyFor(rec)
	if err != nil {
		return err
	}
	return Send(conn, &Message{Type: TypeSubscribeOK, SubID: ids[0], Scheme: p.Scheme(), Blob: keyBlob, Epoch: epoch})
}

// register is step ② for n ≥ 1 subscriptions of one admitted client:
// encode each under the matching scheme (which validates it — the
// publisher must not relay junk, and for encrypting schemes this is
// where plaintext stops), seal under SK for sealed-exchange schemes,
// split into frames, tag each frame with one MAC binding every blob to
// the client identity (registrationTag), and send it to the client's
// home router, which checks the one tag inside its enclave and ingests
// the items. Ownership is recorded as each frame is acknowledged, so
// when a later frame fails the IDs already issued — returned with the
// error, in spec order — can still be unsubscribed.
func (p *Publisher) register(router, clientID string, specs []pubsub.SubscriptionSpec) ([]uint64, error) {
	sealed := p.codec.Capabilities().SealedExchange
	items := make([]BatchItem, len(specs))
	for i := range specs {
		enc, err := p.codec.EncodeSubscription(specs[i])
		if err != nil {
			return nil, fmt.Errorf("broker: subscription %d invalid: %w", i, err)
		}
		if sealed {
			if enc, err = p.skSealer.Seal(enc); err != nil {
				return nil, fmt.Errorf("broker: re-encrypting subscription %d: %w", i, err)
			}
		}
		items[i] = BatchItem{Blob: enc}
	}
	ids := make([]uint64, 0, len(specs))
	for rest := items; len(rest) > 0; {
		var frame []BatchItem
		frame, rest = nextFrame(rest, batchFrameBudget)
		reply, err := p.routerRequest(router, &Message{
			Type: TypeRegisterBatch, ClientID: clientID, Scheme: p.Scheme(), Items: frame,
			Tag: registrationTag(p.sk, clientID, frame),
		})
		if err != nil {
			return ids, err
		}
		if err := expect(reply, TypeRegisterBatchOK); err != nil {
			return ids, err
		}
		p.mu.Lock()
		for _, id := range reply.SubIDs {
			p.subOwner[subKey(router, id)] = clientID
		}
		p.mu.Unlock()
		ids = append(ids, reply.SubIDs...)
		if len(reply.SubIDs) != len(frame) {
			return ids, fmt.Errorf("broker: registration ack names %d subscriptions, sent %d", len(reply.SubIDs), len(frame))
		}
	}
	return ids, nil
}

// handleGroupKey re-issues the current payload key to an active
// client (e.g. after a rotation).
func (p *Publisher) handleGroupKey(conn net.Conn, m *Message) error {
	rec, err := p.registry.Authorize(m.ClientID)
	if err != nil {
		return err
	}
	blob, epoch, err := p.groupKeyFor(rec)
	if err != nil {
		return err
	}
	return Send(conn, &Message{Type: TypeGroupKeyOK, Blob: blob, Epoch: epoch})
}

// handleUnsubscribe relays a removal to the router after checking
// ownership.
func (p *Publisher) handleUnsubscribe(conn net.Conn, m *Message) error {
	if _, err := p.registry.Authorize(m.ClientID); err != nil {
		return err
	}
	key := subKey(m.Router, m.SubID)
	p.mu.Lock()
	owner, ok := p.subOwner[key]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSubscription, m.SubID)
	}
	if owner != m.ClientID {
		return fmt.Errorf("%w: subscription %d, client %s", ErrNotOwner, m.SubID, m.ClientID)
	}
	reply, err := p.routerRequest(m.Router, &Message{Type: TypeRemove, ClientID: m.ClientID, SubID: m.SubID})
	if err != nil {
		return err
	}
	if err := expect(reply, TypeRemoveOK); err != nil {
		return err
	}
	p.mu.Lock()
	delete(p.subOwner, key)
	p.mu.Unlock()
	return Send(conn, &Message{Type: TypeUnsubscribeOK, SubID: m.SubID})
}

// admit performs first-contact admission: the subscribe message
// carries the client's response key; known-revoked clients are
// rejected.
func (p *Publisher) admit(m *Message) (*ClientRecord, error) {
	if rec, err := p.registry.Authorize(m.ClientID); err == nil {
		return rec, nil
	} else if errors.Is(err, ErrRevokedClient) {
		return nil, err
	}
	if len(m.PubKey) == 0 {
		return nil, fmt.Errorf("client %s supplied no response key", m.ClientID)
	}
	pub, err := scrypto.ParsePublicKey(m.PubKey)
	if err != nil {
		return nil, fmt.Errorf("client %s response key: %w", m.ClientID, err)
	}
	if err := p.registry.Admit(m.ClientID, pub); err != nil {
		return nil, err
	}
	return p.registry.Authorize(m.ClientID)
}

// groupKeyFor wraps the current group key for a client and registers
// its group membership.
func (p *Publisher) groupKeyFor(rec *ClientRecord) ([]byte, uint64, error) {
	key, epoch := p.group.Join(rec.ID)
	blob, err := scrypto.SealTo(rec.PubKey, groupKeyLabel, key.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("wrapping group key: %w", err)
	}
	return blob, epoch, nil
}

// Event is one publication: the routable header (matched inside the
// enclave) and the payload only subscribed clients can read.
type Event struct {
	Header  pubsub.EventSpec
	Payload []byte
}

// Publish is step ④: encode the header under the matching scheme
// (sealing it under SK for sealed-exchange schemes), encrypt the
// payload under the group key, and queue both to the router as one
// frame. The call returns once the frame is queued; frames keep call
// order, and one failed write closes the connection and is returned
// by every later call. It waits, under ctx, only while a burst's worth
// of frames is already queued, and returns ctx.Err() if ctx ends
// first — a frame is queued whole or not at all, so the stream stays
// intact. Flush waits for the queued frames to be written.
func (p *Publisher) Publish(ctx context.Context, header pubsub.EventSpec, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	encHeader, err := p.encodeHeader(header)
	if err != nil {
		return err
	}
	payloadSealer, epoch := p.group.Sealer()
	encPayload, err := payloadSealer.Seal(payload)
	if err != nil {
		return fmt.Errorf("broker: encrypting payload: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.routerConn == nil {
		return fmt.Errorf("%w: publisher has no router", ErrNotConnected)
	}
	return p.routerConn.send(ctx, &Message{Type: TypePublish, Scheme: p.Scheme(), Blob: encHeader, Payload: encPayload, Epoch: epoch})
}

// encodeHeader produces the routable header blob: the scheme encoding,
// SK-sealed when the scheme exchanges sealed plaintext.
func (p *Publisher) encodeHeader(header pubsub.EventSpec) ([]byte, error) {
	raw, err := p.codec.EncodeEvent(header)
	if err != nil {
		return nil, err
	}
	if !p.codec.Capabilities().SealedExchange {
		return raw, nil
	}
	enc, err := p.skSealer.Seal(raw)
	if err != nil {
		return nil, fmt.Errorf("broker: encrypting header: %w", err)
	}
	return enc, nil
}

// batchFrameBudget bounds the ciphertext bytes of one publish-batch or
// register-batch frame. Both are binary data frames that add only a
// few length bytes per item, so a frame of this much ciphertext stays
// far below wire.MaxFrame (16 MB); the value keeps the margin it had
// when a register-batch still travelled as Base64 inside JSON.
const batchFrameBudget = 8 << 20

// PublishBatch is step ④ for a whole batch: every header is encrypted
// under SK and every payload under the current group key, and the
// batch travels to the router as one message — one frame, one enclave
// crossing per slice (one ecall, or one queue poll under the
// switchless policy) however many events it carries. This is the
// amortisation seed for high-throughput feeds: the per-publication
// EENTER/EEXIT cost divides by the batch size. A batch whose
// ciphertext would overflow the wire's frame limit is transparently
// split into the fewest frames that fit (each still one enclave
// crossing); an empty batch is a no-op. Delivery order within the
// batch is preserved either way. Frames are queued as Publish queues
// its one: the call returns once they are queued, they keep call
// order, a failed write is returned by every later call, and ctx
// bounds only the wait for queue space — frames queued before it
// ended stay queued and are written.
func (p *Publisher) PublishBatch(ctx context.Context, events []Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(events) == 0 {
		return nil
	}
	payloadSealer, epoch := p.group.Sealer()
	items := make([]BatchItem, len(events))
	for i := range events {
		encHeader, err := p.encodeHeader(events[i].Header)
		if err != nil {
			return fmt.Errorf("broker: batch event %d: %w", i, err)
		}
		encPayload, err := payloadSealer.Seal(events[i].Payload)
		if err != nil {
			return fmt.Errorf("broker: encrypting batch payload %d: %w", i, err)
		}
		items[i] = BatchItem{Blob: encHeader, Payload: encPayload}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.routerConn == nil {
		return fmt.Errorf("%w: publisher has no router", ErrNotConnected)
	}
	for rest := items; len(rest) > 0; {
		var frame []BatchItem
		frame, rest = nextFrame(rest, batchFrameBudget)
		if err := p.routerConn.send(ctx, &Message{Type: TypePublishBatch, Scheme: p.Scheme(), Items: frame, Epoch: epoch}); err != nil {
			return err
		}
	}
	return nil
}

// nextFrame cuts the longest prefix of items whose ciphertext (Blob
// plus Payload) fits budget bytes — at least one item, so an oversized
// item travels alone — and returns it with the remainder.
func nextFrame(items []BatchItem, budget int) (frame, rest []BatchItem) {
	end, size := 0, 0
	for end < len(items) {
		size += len(items[end].Blob) + len(items[end].Payload)
		if end > 0 && size > budget {
			break
		}
		end++
	}
	return items[:end], items[end:]
}

// RegisterBulk is the service provider's bulk-load path: it registers
// a whole subscription population on behalf of an admitted client the
// way Subscribe registers one (register), with one MAC tag per wire
// frame of up to batchFrameBudget bytes of blobs instead of a
// sealed-box open per subscription (≈80 µs each on a 2-vCPU Xeon
// host) — what makes ⑥-figure populations affordable. Returns the
// assigned subscription IDs in spec order; on an error, those of the
// frames the router had already acknowledged. router names the
// federated home router ("" = the default route). The client must
// already be admitted (Registry().Admit or a prior Subscribe).
func (p *Publisher) RegisterBulk(ctx context.Context, clientID, router string, specs []pubsub.SubscriptionSpec) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := p.registry.Authorize(clientID); err != nil {
		return nil, err
	}
	return p.register(router, clientID, specs)
}

// Revoke excludes a client: admission is withdrawn and the payload
// group key rotates so the client cannot read future publications.
func (p *Publisher) Revoke(clientID string) error {
	if err := p.registry.Revoke(clientID); err != nil {
		return err
	}
	if _, err := p.group.Revoke(clientID); err != nil {
		return err
	}
	return nil
}

// Flush returns once every frame queued on the publisher's router
// connections before the call has been written, or with the first
// write error of one of them, or with ctx.Err() if ctx ends first.
// It is the barrier before closing a connection whose last frames
// must not be lost.
func (p *Publisher) Flush(ctx context.Context) error {
	p.mu.Lock()
	links := make([]*routerLink, 0, 1+len(p.routers))
	if p.routerConn != nil {
		links = append(links, p.routerConn)
	}
	for _, l := range p.routers {
		if l != p.routerConn {
			links = append(links, l)
		}
	}
	p.mu.Unlock()
	for _, l := range links {
		if err := l.flushed(ctx); err != nil {
			return err
		}
	}
	return nil
}

// routerRequest performs one request/response exchange with the named
// router (the default route when router is empty), serialised on the
// publisher's shared connections: the request is queued behind every
// frame before it, and the reply read under p.mu, so replies pair with
// requests. A reply that cannot be read fails the link, as a write
// does: the stream is no longer aligned.
func (p *Publisher) routerRequest(router string, m *Message) (*Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	link := p.routerConn
	if router != "" {
		link = p.routers[router]
		if link == nil {
			return nil, fmt.Errorf("%w: publisher knows no router %q", ErrNotConnected, router)
		}
	}
	if link == nil {
		return nil, fmt.Errorf("%w: publisher has no router", ErrNotConnected)
	}
	if err := link.send(context.Background(), m); err != nil {
		return nil, err
	}
	reply, err := Recv(link.conn)
	if err != nil {
		return nil, link.fail(err)
	}
	return reply, nil
}

// routerLink is one of the publisher's router connections with its
// write-behind queue. A caller appends its whole frame to the queue
// and returns; the append that finds no flusher running starts one,
// which takes everything queued, writes it in one Write, repeats until
// the queue is empty and exits. So a lone frame leaves at once, N
// frames queued behind a write in flight leave in one syscall, and no
// goroutine outlives the frames it writes. Frames leave in the order
// they were queued, whatever their type. A caller waits only while
// burstMax bytes are already queued. The first failed write closes
// the connection and is returned by every later call on the link.
type routerLink struct {
	conn  net.Conn // a bufferedConn: replies are read through it
	flush func()   // l.drain, bound once so starting a flusher allocates nothing

	mu       sync.Mutex
	q        sendBuffer    // frames queued and not yet taken by the flusher
	spare    []byte        // the buffer last written: the next queue's storage
	flushing bool          // a flusher goroutine is running
	queued   uint64        // bytes ever queued
	written  uint64        // bytes ever taken and written
	err      error         // the link's failure; nothing is written after it
	progress chan struct{} // closed after the next write; made by a waiter
}

// newRouterLink gives conn, whose replies are read through a
// bufferedConn, an empty write-behind queue.
func newRouterLink(conn net.Conn) *routerLink {
	l := &routerLink{conn: conn}
	l.q.enc = json.NewEncoder(&l.q)
	l.flush = l.drain
	return l
}

// send queues m as one whole frame, first waiting under ctx while
// burstMax bytes are already queued.
func (l *routerLink) send(ctx context.Context, m *Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.err == nil && len(l.q.buf) >= burstMax {
		if err := l.wait(ctx); err != nil {
			return err
		}
	}
	if l.err != nil {
		return l.err
	}
	start := len(l.q.buf)
	if err := l.q.appendFrame(m); err != nil {
		return err
	}
	l.queued += uint64(len(l.q.buf) - start)
	if !l.flushing {
		l.flushing = true
		go l.flush()
	}
	return nil
}

// drain is the flusher: it writes the queue until it is empty or a
// write fails. A buffer that grew past sendBufMax is dropped once
// written rather than kept as the next queue's storage.
func (l *routerLink) drain() {
	l.mu.Lock()
	for l.err == nil && len(l.q.buf) > 0 {
		out := l.q.buf
		l.q.buf, l.spare = l.spare[:0], nil
		l.mu.Unlock()
		_, err := l.conn.Write(out)
		l.mu.Lock()
		l.written += uint64(len(out))
		if cap(out) <= sendBufMax {
			l.spare = out
		}
		if err != nil {
			l.failLocked(fmt.Errorf("broker: writing frame: %w", err))
		}
		l.wake()
	}
	l.flushing = false
	l.mu.Unlock()
}

// wake releases every waiter; each rechecks what it waits for.
func (l *routerLink) wake() {
	if l.progress != nil {
		close(l.progress)
		l.progress = nil
	}
}

// wait releases l.mu until the flusher's next write completes, the
// link fails, or ctx ends. The caller holds l.mu, and holds it again
// on return.
func (l *routerLink) wait(ctx context.Context) error {
	if l.progress == nil {
		l.progress = make(chan struct{})
	}
	progress := l.progress
	l.mu.Unlock()
	var err error
	select {
	case <-progress:
	case <-ctx.Done():
		err = ctx.Err()
	}
	l.mu.Lock()
	// scbr:vet ignore(lockorder): the caller holds l.mu on entry and on return; wait only lets go of it around the select, as its comment states
	return err
}

// flushed waits under ctx until every frame queued before the call
// has been written, and returns the link's failure if it has one.
func (l *routerLink) flushed(ctx context.Context) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for mark := l.queued; l.err == nil && l.written < mark; {
		if err := l.wait(ctx); err != nil {
			return err
		}
	}
	return l.err
}

// fail records err as the link's failure unless it already has one,
// closes the connection, and returns the failure.
func (l *routerLink) fail(err error) error {
	l.mu.Lock()
	l.failLocked(err)
	err = l.err
	l.mu.Unlock()
	return err
}

func (l *routerLink) failLocked(err error) {
	if l.err == nil {
		l.err = err
		l.q.buf = nil // queued frames will not be written
		_ = l.conn.Close()
		l.wake()
	}
}
