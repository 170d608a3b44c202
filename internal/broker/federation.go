// The router's federation layer: peer connection handling over the
// same wire protocol clients use, bridging internal/federation's
// overlay state machine onto real connections. A peer link is one TCP
// connection carrying both directions of digest updates and forwarded
// publications; the side listed in RouterConfig.Peers dials (with
// retry), the other side accepts the PEER_HELLO on its ordinary
// listener. Either way, the link only comes up after mutual
// attestation, and every federation frame on it is sealed under the
// per-link key the handshake derived.

package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scbr/internal/attest"
	"scbr/internal/federation"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
)

// peerQueueLen bounds a peer link's outbound queue. It is sized to
// absorb a whole publish storm's worth of per-event forwards even
// when the link's writer goroutine is starved of CPU for the storm's
// duration (forwards fan out per publication, so a few thousand
// frames can arrive in one scheduler slice on a loaded box). What
// happens on overflow depends on the frame: losing a digest delta
// would leave the peer's view divergent forever, so digest overflow
// severs the link and lets the redial full-sync restore consistency;
// forwarded publications are fire-and-forget, so forward overflow
// drops that one frame (counted as ForwardsDropped) and keeps the
// link — severing would throw away everything else queued and lose
// every publication until the redial completes.
const peerQueueLen = 4096

// peerDialTimeout bounds one dial attempt so Close never waits long on
// an unreachable peer.
const peerDialTimeout = 2 * time.Second

// peerLink is the transport half of one attested peer connection: a
// bounded outbound queue drained by a dedicated writer, so digest
// broadcasts and forward fan-outs never block on a peer's socket.
type peerLink struct {
	fp   *federation.Peer
	conn net.Conn
	out  chan *Message
	quit chan struct{}
	once sync.Once
}

func (l *peerLink) stop() {
	l.once.Do(func() {
		close(l.quit)
		_ = l.conn.Close()
	})
}

// offer hands one frame to the writer without blocking, reporting
// whether it was accepted. The caller decides what an overflow means
// (see peerQueueLen): the frame types on a link have different loss
// semantics.
func (l *peerLink) offer(m *Message) bool {
	select {
	case l.out <- m:
		return true
	default:
		return false
	}
}

// writer drains the link's queue onto its connection in bursts: the
// frames already queued behind the one it took ride the same Write.
func (l *peerLink) writer() {
	var burst []*Message
	for {
		select {
		case <-l.quit:
			return
		case m := <-l.out:
			var err error
			if burst, err = sendBurst(l.conn, m, l.out, burst); err != nil {
				l.stop()
				return
			}
		}
	}
}

// startFederation builds the overlay and launches the dialers. Called
// last in NewRouter, so a construction failure never leaves dialer
// goroutines behind.
func (r *Router) startFederation() error {
	cfg := r.cfg
	if cfg.RouterID == "" {
		return errors.New("broker: federation needs a router ID (set RouterConfig.RouterID)")
	}
	if cfg.PeerVerifier == nil {
		return errors.New("broker: federation needs a peer verifier (set RouterConfig.PeerVerifier)")
	}
	r.fedLinks = make(map[*peerLink]bool)
	r.fed = federation.NewOverlay(cfg.RouterID, cfg.FederationTTL, r.hub.Schema(),
		func(p *federation.Peer, frame []byte) {
			if link, ok := p.Tag.(*peerLink); ok {
				if !link.offer(&Message{Type: TypeSubDigest, Blob: frame}) {
					// A dropped digest delta would never be re-sent and
					// the peer's learned set would diverge silently.
					// Sever; the redial full-sync restores consistency.
					link.stop()
				}
			}
		})
	for _, addr := range cfg.Peers {
		r.wg.Add(1)
		go r.dialPeer(addr)
	}
	return nil
}

// peerIdentities returns the enclave identities this router accepts
// from peers: the configured pin set, or its own identity by default
// (a fleet launched from one measured image).
func (r *Router) peerIdentities() []attest.Identity {
	if len(r.cfg.PeerIdentities) > 0 {
		return r.cfg.PeerIdentities
	}
	return []attest.Identity{r.Identity()}
}

// dialPeer maintains one outbound peer link: dial, attest, run, and
// redial with backoff until the router closes.
func (r *Router) dialPeer(addr string) {
	defer r.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-r.closing:
			return
		default:
		}
		raw, err := net.DialTimeout("tcp", addr, peerDialTimeout)
		if err == nil {
			// Read through one buffered reader from the dial on: the
			// handshake reply and the link's frames share it.
			conn := newBufferedConn(raw)
			var name string
			var key *scrypto.SymmetricKey
			name, key, err = r.dialHandshake(conn)
			if err == nil {
				backoff = 50 * time.Millisecond
				r.runPeer(conn, name, key)
			} else {
				_ = conn.Close()
			}
		}
		select {
		case <-r.closing:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > peerDialTimeout {
			backoff = peerDialTimeout
		}
	}
}

// dialHandshake runs the dialer's half of the attested handshake on a
// fresh connection. The connection is not yet registered for teardown
// (that happens in runPeer), so the whole exchange runs under a
// deadline — a stalled peer cannot wedge Close behind wg.Wait.
func (r *Router) dialHandshake(conn net.Conn) (name string, key *scrypto.SymmetricKey, err error) {
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	p0 := r.p0
	p0.mu.Lock()
	hello, ephemeral, err := federation.NewHello(r.cfg.RouterID, p0.enclave, r.quoter)
	p0.mu.Unlock()
	if err != nil {
		return "", nil, err
	}
	blob, err := json.Marshal(hello)
	if err != nil {
		return "", nil, fmt.Errorf("broker: encoding peer hello: %w", err)
	}
	if err := Send(conn, &Message{Type: TypePeerHello, Blob: blob}); err != nil {
		return "", nil, err
	}
	reply, err := Recv(conn)
	if err != nil {
		return "", nil, err
	}
	if err := expect(reply, TypePeerWelcome); err != nil {
		return "", nil, err
	}
	var welcome federation.Welcome
	if err := json.Unmarshal(reply.Blob, &welcome); err != nil {
		return "", nil, fmt.Errorf("broker: decoding peer welcome: %w", err)
	}
	p0.mu.Lock()
	key, err = federation.CompleteHandshake(&welcome, r.cfg.PeerVerifier, r.peerIdentities(), p0.enclave, ephemeral)
	p0.mu.Unlock()
	if err != nil {
		return "", nil, err
	}
	return welcome.RouterID, key, nil
}

// handlePeerHello runs the acceptor's half on a connection whose
// first message was PEER_HELLO, then serves the link until it drops.
// The connection never returns to the ordinary client loop.
func (r *Router) handlePeerHello(conn net.Conn, m *Message) error {
	if r.fed == nil {
		return errors.New("federation disabled on this router")
	}
	var hello federation.Hello
	if err := json.Unmarshal(m.Blob, &hello); err != nil {
		return fmt.Errorf("decoding peer hello: %w", err)
	}
	p0 := r.p0
	p0.mu.Lock()
	welcome, key, err := federation.AcceptHello(&hello, r.cfg.PeerVerifier, r.peerIdentities(),
		r.cfg.RouterID, p0.enclave, r.quoter)
	p0.mu.Unlock()
	if err != nil {
		return err
	}
	blob, err := json.Marshal(welcome)
	if err != nil {
		return fmt.Errorf("encoding peer welcome: %w", err)
	}
	if err := Send(conn, &Message{Type: TypePeerWelcome, Blob: blob}); err != nil {
		return err
	}
	r.runPeer(conn, hello.RouterID, key)
	return nil
}

// runPeer attaches an attested link to the overlay and serves its
// read side until the connection drops or the router closes.
func (r *Router) runPeer(conn net.Conn, name string, key *scrypto.SymmetricKey) {
	link := &peerLink{
		conn: conn,
		out:  make(chan *Message, peerQueueLen),
		quit: make(chan struct{}),
	}
	fp, err := r.fed.AttachPeer(name, key, link)
	if err != nil {
		link.stop()
		return
	}
	link.fp = fp
	r.fedMu.Lock()
	select {
	case <-r.closing:
		r.fedMu.Unlock()
		r.fed.DetachPeer(link.fp)
		link.stop()
		return
	default:
	}
	r.fedLinks[link] = true
	r.fedMu.Unlock()
	go link.writer()
	defer func() {
		r.fed.DetachPeer(link.fp)
		r.fedMu.Lock()
		delete(r.fedLinks, link)
		r.fedMu.Unlock()
		link.stop()
	}()
	for {
		m, err := Recv(conn)
		if err != nil {
			return
		}
		switch m.Type {
		case TypeSubDigest:
			p0 := r.p0
			p0.mu.Lock()
			err := p0.enclave.Ecall(func() error { return r.fed.HandleDigest(link.fp, m.Blob) })
			p0.mu.Unlock()
			if err != nil {
				// A digest that fails to apply leaves this side's view
				// of the peer's interests divergent, and the sender has
				// already advanced its announced set — the lost delta
				// would never be re-sent. Sever the link; the redial
				// full-sync restores consistency.
				return
			}
		case TypeFwdPub:
			r.handleFwdPub(link, m)
		default:
			return // protocol violation: sever the link
		}
	}
}

// openHeaderLocked is the federation layer's trusted header
// decryption: recover and intern the publication header for digest
// evaluation. The caller holds the partition lock and is inside its
// enclave, exactly like matchSliceBatch.
func (r *Router) openHeaderLocked(p *partition, blob []byte, sk *scrypto.SymmetricKey) (*pubsub.Event, error) {
	plain, err := p.open(sk, blob, p.plain[:0])
	if err != nil {
		return nil, fmt.Errorf("decrypting header: %w", err)
	}
	p.plain = plain
	spec, err := pubsub.DecodeEventSpec(plain)
	if err != nil {
		return nil, fmt.Errorf("decoding header: %w", err)
	}
	return spec.Intern(r.hub.Schema())
}

// forwardPublication fans a locally ingested publication out to the
// peers whose digests match, alongside (and independent of) the local
// match fan-out. The digest evaluation decrypts the header inside the
// attestation slice's enclave; the frames relayed to peers carry the
// publisher's original ciphertexts.
func (r *Router) forwardPublication(m *Message) {
	if !r.fed.HasPeers() {
		// No attached links: don't pay the partition-0 enclave entry
		// (and its lock) just to decide "forward nowhere".
		return
	}
	sk := r.keys()
	if sk == nil {
		return
	}
	p0 := r.p0
	var outs []federation.Outbound
	p0.mu.Lock()
	_ = p0.enclave.Ecall(func() error {
		forEachPublication(m, func(blob, payload []byte) {
			ev, err := r.openHeaderLocked(p0, blob, sk)
			if err != nil {
				return // tampered item: the local path drops it too
			}
			o, err := r.fed.ForwardLocal(blob, payload, m.Epoch, ev)
			if err == nil {
				outs = append(outs, o...)
			}
		})
		return nil
	})
	p0.mu.Unlock()
	r.fedSend(outs)
}

// handleFwdPub processes one forwarded publication from a peer:
// suppress duplicates and our own publications come full circle,
// re-forward toward further matching downstreams, and route the first
// sighting into the local matching pipeline so its deliveries flow
// through the ordinary per-client queues.
func (r *Router) handleFwdPub(link *peerLink, m *Message) {
	sk := r.keys()
	p0 := r.p0
	var (
		fwd  *federation.ForwardedPublication
		outs []federation.Outbound
		err  error
	)
	p0.mu.Lock()
	_ = p0.enclave.Ecall(func() error {
		fwd, outs, err = r.fed.HandleForward(link.fp, m.Blob, func(header []byte) (*pubsub.Event, error) {
			if sk == nil {
				return nil, ErrNotProvisioned
			}
			return r.openHeaderLocked(p0, header, sk)
		})
		return nil
	})
	p0.mu.Unlock()
	if err != nil {
		return // malformed or unauthenticated frame: drop
	}
	r.fedSend(outs)
	if fwd != nil {
		r.routeLocal(&Message{Type: TypePublish, Blob: fwd.Header, Payload: fwd.Payload, Epoch: fwd.Epoch})
	}
}

// fedSend enqueues sealed forward frames onto their links. A link
// whose queue is full loses this one frame (forwards are
// fire-and-forget) — the link itself stays up, so everything already
// queued and everything after still flows.
func (r *Router) fedSend(outs []federation.Outbound) {
	for _, ob := range outs {
		if link, ok := ob.Peer.Tag.(*peerLink); ok {
			if !link.offer(&Message{Type: TypeFwdPub, Blob: ob.Frame}) {
				r.fed.NoteForwardDropped()
			}
		}
	}
}

// fedAddLocal folds accepted registrations into the digest state in one
// entry into slice 0's enclave, which opens and decodes each logged blob
// itself: subscription plaintext never leaves it. Federation requires
// FederationDigests, so every blob is an SK envelope.
func (r *Router) fedAddLocal(ents []logEntry) {
	if r.fed == nil || len(ents) == 0 {
		return
	}
	sk, p0 := r.keys(), r.p0
	p0.mu.Lock()
	_ = p0.enclave.Ecall(func() error {
		for _, ent := range ents {
			// A blob the current key cannot open was re-provisioned away.
			if plain, err := p0.open(sk, ent.Blob, p0.plain[:0]); err == nil {
				p0.plain = plain
				if spec, err := pubsub.DecodeSubscriptionSpec(plain); err == nil {
					_ = r.fed.AddLocal(ent.SubID, spec)
				}
			}
		}
		return nil
	})
	p0.mu.Unlock()
}

// fedRemoveLocal drops a removed registration from the digest state.
func (r *Router) fedRemoveLocal(subID uint64) {
	if r.fed == nil {
		return
	}
	p0 := r.p0
	p0.mu.Lock()
	_ = p0.enclave.Ecall(func() error { r.fed.RemoveLocal(subID); return nil })
	p0.mu.Unlock()
}

// FederationSnapshot reports the overlay's counters: live peers,
// digest sizes and update counts, and the forwarded / withheld /
// suppressed publication tallies. Zero when federation is disabled.
func (r *Router) FederationSnapshot() federation.Counters {
	if r.fed == nil {
		return federation.Counters{}
	}
	return r.fed.Snapshot()
}
