package broker

import (
	"context"
	"crypto/ecdh"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
)

// Delivery is one decrypted publication payload received by a client,
// or the error that prevented decryption (e.g. the client was revoked
// and cannot obtain the rotated group key).
type Delivery struct {
	Payload []byte
	Epoch   uint64
	// SubIDs names this client's subscriptions the publication
	// matched, as reported by the router (empty for deliveries from a
	// router predating the field).
	SubIDs []uint64
	Err    error
}

// subBuffer is the per-subscription delivery buffer: it absorbs
// bursts without blocking the client's delivery pump. When a handle's
// buffer fills, the pump blocks, which propagates backpressure through
// TCP to the router — deliveries are never dropped, exactly as the
// pre-Subscription channel API behaved. Consumers must drain (or
// Unsubscribe) every handle they hold.
const subBuffer = 256

// Client is a data consumer: it subscribes through the publisher
// (trusted for the service, §3.2) and receives payloads from the
// untrusted router.
type Client struct {
	ID   string
	keys *scrypto.KeyPair

	mu          sync.Mutex
	homeRouter  string // federation: the overlay name of the router this client listens on
	scheme      string // the deployment's matching scheme, learned from the subscribe ack
	publisherPK *ecdh.PublicKey
	pubConn     net.Conn
	routerConn  net.Conn
	groupOpener *scrypto.Opener // opens payloads under the current group key; nil before the first key
	epoch       uint64
	subs        map[uint64]*Subscription
	listened    bool          // a delivery channel has been bound at least once
	pumpDone    chan struct{} // closed when the current delivery pump exits
	wg          sync.WaitGroup
	done        chan struct{}
	closeOnce   sync.Once

	// cursor is the highest delivery cursor observed from the router —
	// what a Resume presents to have the gap replayed. Atomic: the
	// pump advances it while callers read it.
	cursor atomic.Uint64
}

// NewClient creates a client with a fresh response key pair.
func NewClient(id string) (*Client, error) {
	if id == "" {
		return nil, errors.New("broker: empty client ID")
	}
	keys, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return nil, fmt.Errorf("broker: generating client keys: %w", err)
	}
	return &Client{ID: id, keys: keys, subs: make(map[uint64]*Subscription), done: make(chan struct{})}, nil
}

// closedErr reports ErrClosed once Close has been called.
func (c *Client) closedErr() error {
	select {
	case <-c.done:
		return fmt.Errorf("%w: client %s", ErrClosed, c.ID)
	default:
		return nil
	}
}

// ConnectPublisher binds the client to its service provider. pk is the
// publisher's public key PK, obtained out of band. Rebinding (e.g.
// reconnecting after a publisher restart) closes the previous
// connection — it belongs to this client, and leaving it open would
// leak it and wedge the old publisher's serving loop.
func (c *Client) ConnectPublisher(conn net.Conn, pk *ecdh.PublicKey) {
	c.mu.Lock()
	old := c.pubConn
	c.pubConn = conn
	c.publisherPK = pk
	c.mu.Unlock()
	if old != nil && old != conn {
		_ = old.Close()
	}
}

// UseRouter names the federated router this client attaches to, so
// the publisher registers its subscriptions there (deliveries arrive
// on the router a client listens on, wherever the publication entered
// the overlay). Leave unset outside federated deployments.
func (c *Client) UseRouter(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.homeRouter = name
}

// Subscribe encrypts the subscription under PK and submits it for
// admission (step ①). On success it returns a Subscription handle
// bound to this client's delivery stream and stores the payload group
// key delivered with the ack. The handle is fed by the pump of a live
// Attach: subscribing before Attach (or after the delivery connection
// dropped) is fine, but deliveries only flow once a pump is running.
// Cancelling ctx severs the publisher connection.
func (c *Client) Subscribe(ctx context.Context, spec pubsub.SubscriptionSpec) (*Subscription, error) {
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	raw, err := pubsub.EncodeSubscriptionSpec(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pubConn == nil || c.publisherPK == nil {
		return nil, fmt.Errorf("%w: client %s has no publisher", ErrNotConnected, c.ID)
	}
	blob, err := scrypto.SealTo(c.publisherPK, subscriptionLabel, raw)
	if err != nil {
		return nil, fmt.Errorf("broker: encrypting subscription: %w", err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(c.keys.Public())
	if err != nil {
		return nil, fmt.Errorf("broker: encoding response key: %w", err)
	}
	release := ctxGuard(ctx, c.pubConn)
	defer release()
	if err := Send(c.pubConn, &Message{Type: TypeSubscribe, ClientID: c.ID, Router: c.homeRouter, Blob: blob, PubKey: pubDER}); err != nil {
		return nil, ctxErr(ctx, err)
	}
	reply, err := Recv(c.pubConn)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	if err := expect(reply, TypeSubscribeOK); err != nil {
		return nil, err
	}
	if err := c.installGroupKeyLocked(reply.Blob, reply.Epoch); err != nil {
		return nil, err
	}
	// Remember the deployment's matching scheme: subsequent listen
	// frames are tagged with it, so attaching to a wrong-scheme router
	// fails loudly with ErrSchemeMismatch instead of going silent.
	c.scheme = reply.Scheme
	s := &Subscription{
		id:     reply.SubID,
		router: c.homeRouter,
		spec:   spec,
		c:      c,
		ch:     make(chan Delivery, subBuffer),
		done:   make(chan struct{}),
	}
	c.subs[s.id] = s
	return s, nil
}

// Unsubscribe withdraws one of this client's subscriptions by ID and
// closes its Subscription handle, if one is live.
func (c *Client) Unsubscribe(ctx context.Context, subID uint64) error {
	if err := c.closedErr(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pubConn == nil {
		return fmt.Errorf("%w: client %s has no publisher", ErrNotConnected, c.ID)
	}
	// Address the router the subscription was registered on, not the
	// client's *current* home — IDs are per-router, so a re-homed
	// client must still unsubscribe where it subscribed.
	router := c.homeRouter
	if s, ok := c.subs[subID]; ok {
		router = s.router
	}
	release := ctxGuard(ctx, c.pubConn)
	defer release()
	if err := Send(c.pubConn, &Message{Type: TypeUnsubscribe, ClientID: c.ID, Router: router, SubID: subID}); err != nil {
		return ctxErr(ctx, err)
	}
	reply, err := Recv(c.pubConn)
	if err != nil {
		return ctxErr(ctx, err)
	}
	if err := expect(reply, TypeUnsubscribeOK); err != nil {
		return err
	}
	if s, ok := c.subs[subID]; ok {
		delete(c.subs, subID)
		s.closeHandle()
	}
	return nil
}

// RefreshGroupKey fetches the current payload key from the publisher;
// it fails for revoked clients — the mechanism that locks them out of
// new publications.
func (c *Client) RefreshGroupKey() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refreshGroupKeyLocked()
}

func (c *Client) refreshGroupKeyLocked() error {
	if c.pubConn == nil {
		return fmt.Errorf("%w: client %s has no publisher", ErrNotConnected, c.ID)
	}
	if err := Send(c.pubConn, &Message{Type: TypeGroupKey, ClientID: c.ID}); err != nil {
		return err
	}
	reply, err := Recv(c.pubConn)
	if err != nil {
		return err
	}
	if err := expect(reply, TypeGroupKeyOK); err != nil {
		return err
	}
	return c.installGroupKeyLocked(reply.Blob, reply.Epoch)
}

func (c *Client) installGroupKeyLocked(blob []byte, epoch uint64) error {
	raw, err := scrypto.OpenSealed(c.keys.Private, groupKeyLabel, blob)
	if err != nil {
		return fmt.Errorf("broker: unwrapping group key: %w", err)
	}
	key, err := scrypto.SymmetricKeyFromBytes(raw)
	if err != nil {
		return fmt.Errorf("broker: parsing group key: %w", err)
	}
	// One opener per key epoch: the key setup (AES schedule, GHASH key)
	// is paid here, not once per delivery.
	opener, err := scrypto.NewOpener(key)
	if err != nil {
		return fmt.Errorf("broker: preparing group key: %w", err)
	}
	c.groupOpener = opener
	c.epoch = epoch
	return nil
}

// Epoch returns the client's current group key epoch.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Attach registers this client's delivery channel with the router and
// starts the delivery pump that feeds every Subscription handle.
// Deliveries are decrypted once and routed to the handles whose
// subscriptions the router reports as matched. The pump stops when the
// connection drops, ctx is cancelled, or the client closes; losing
// the connection closes every Subscription handle. For handles that
// survive reconnects, bind with Resume instead.
func (c *Client) Attach(ctx context.Context, conn net.Conn) error {
	_, err := c.listen(ctx, conn, false)
	return err
}

// Resume binds conn as the client's delivery channel, continuing the
// cursor-stamped stream where the previous connection left off: the
// router replays every delivery it retained past the client's
// last-seen cursor, and the returned gap counts deliveries that had
// already left the router's replay ring (0 means the resume was
// lossless). Replayed duplicates are filtered by cursor, so each
// delivery reaches the Subscription handles exactly once, in order.
//
// Unlike Attach, a pump started by Resume leaves Subscription handles
// open when the connection drops — they simply go quiet until the
// next Resume. The first Resume of a fresh client is an ordinary
// attach (nothing to replay). Watch DeliveryDone to learn when the
// connection needs resuming.
func (c *Client) Resume(ctx context.Context, conn net.Conn) (gap uint64, err error) {
	return c.listen(ctx, conn, true)
}

// LastCursor returns the highest delivery cursor this client has
// observed — what the next Resume will present to the router.
func (c *Client) LastCursor() uint64 { return c.cursor.Load() }

// DeliveryDone returns a channel that closes when the current
// delivery pump exits (connection lost, ctx cancelled, or client
// closed). Before any Attach/Resume — or after the pump has already
// exited — the returned channel is closed, so a reconnect loop can
// simply wait on it and Resume.
func (c *Client) DeliveryDone() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pumpDone == nil {
		closed := make(chan struct{})
		close(closed)
		return closed
	}
	return c.pumpDone
}

func (c *Client) listen(ctx context.Context, raw net.Conn, resumable bool) (uint64, error) {
	if err := c.closedErr(); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// The delivery connection is read through one buffered reader from
	// the listen ack on: the ack and any replay burst behind it share
	// it with the pump, and a burst of deliveries is one read.
	conn := newBufferedConn(raw)
	// A resuming client that has listened before presents its cursor;
	// the first bind is an ordinary attach with nothing to replay.
	c.mu.Lock()
	resume := resumable && c.listened
	schemeTag := c.scheme
	c.mu.Unlock()
	hello := &Message{Type: TypeListen, ClientID: c.ID, Scheme: schemeTag}
	if resume {
		hello.Resume = true
		hello.Cursor = c.cursor.Load()
	}
	release := ctxGuard(ctx, conn)
	if err := Send(conn, hello); err != nil {
		release()
		return 0, ctxErr(ctx, err)
	}
	ack, err := Recv(conn)
	if err != nil {
		release()
		return 0, ctxErr(ctx, err)
	}
	if err := expect(ack, TypeListenOK); err != nil {
		release()
		return 0, err
	}
	release()
	// Rebinding replaces any previous delivery connection: close it and
	// wait for its pump to unwind before touching the cursor — a live
	// old pump shares c.cursor and could race the rebaselines below (or
	// CAS the cursor back up from a stale delivery), silencing the new
	// stream.
	c.mu.Lock()
	oldConn, oldDone := c.routerConn, c.pumpDone
	c.mu.Unlock()
	if oldConn != nil && oldConn != conn {
		_ = oldConn.Close()
		if oldDone != nil {
			select {
			case <-oldDone:
			case <-time.After(2 * time.Second):
				// The old pump is parked handing a stale delivery to a
				// slow consumer. Its cursor write for that frame already
				// happened (the cursor advances before dispatch) and its
				// connection is closed, so no further writes can race
				// the rebaseline — proceed.
			}
		}
	}
	if !resume {
		// Baseline: deliveries before this bind were never ours, so a
		// later Resume must not replay them.
		c.cursor.Store(ack.Cursor)
	} else if ack.Cursor < hello.Cursor {
		// The router's cursor for us regressed below what we have seen:
		// it lost its delivery state (restarted without restore, or we
		// re-homed to a different router). Rebaseline — otherwise every
		// future delivery would be filtered as replay overlap and the
		// stream would go silent forever.
		c.cursor.Store(ack.Cursor)
	} else if ack.Gap > 0 {
		// The router reported unrecoverable loss immediately past our
		// cursor. Acknowledge it, so the replay stream is contiguous
		// from the new baseline and the pump's jump detection does not
		// mistake the already-reported gap for fresh loss.
		c.cursor.Store(hello.Cursor + ack.Gap)
	}
	c.mu.Lock()
	c.routerConn = conn
	c.listened = true
	pumpDone := make(chan struct{})
	c.pumpDone = pumpDone
	c.mu.Unlock()
	c.wg.Add(1)
	go c.pump(ctx, conn, resumable, pumpDone)
	return ack.Gap, nil
}

// pump is the delivery loop of one router connection: it decrypts
// each delivery once and routes it to the matched Subscription
// handles. It blocks when a consumer lags, so backpressure reaches the
// router instead of deliveries being dropped.
func (c *Client) pump(ctx context.Context, conn net.Conn, resumable bool, pumpDone chan struct{}) {
	defer c.wg.Done()
	defer close(pumpDone)
	if !resumable {
		// Attach mode: when the delivery connection is lost (router
		// gone, ctx cancelled, client closed), close every live
		// Subscription handle so blocked Next/Consume callers unwind
		// with ErrClosed. Buffered deliveries still drain first. The dead
		// handles also leave c.subs, so a later re-Attach dispatches
		// to fresh handles only (re-Subscribe after reconnecting).
		// Resume-mode pumps skip this: handles outlive the connection
		// and pick the stream back up on the next Resume.
		defer func() {
			c.mu.Lock()
			subs := make([]*Subscription, 0, len(c.subs))
			for id, s := range c.subs {
				subs = append(subs, s)
				delete(c.subs, id)
			}
			c.mu.Unlock()
			for _, s := range subs {
				s.closeHandle()
			}
		}()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-c.done:
			_ = conn.Close()
		case <-stop:
		}
	}()
	for {
		m, err := Recv(conn)
		if err != nil {
			return
		}
		if m.Type != TypeDeliver {
			continue
		}
		if resumable && m.Cursor > c.cursor.Load()+1 {
			// A cursor jump on a live connection: the router dropped the
			// frames in between (DropOldest overflow). Processing this
			// frame would advance our cursor past the gap and orphan
			// them in the replay ring, so sever instead — DeliveryDone
			// fires, and the owner's next Resume presents the cursor
			// from before the gap, recovering the dropped frames.
			_ = conn.Close()
			return
		}
		if !c.advanceCursor(m.Cursor) {
			continue // replay overlap: this delivery was already seen
		}
		d := c.decryptDelivery(m)
		d.SubIDs = m.SubIDs
		c.dispatch(d)
	}
}

// advanceCursor records a delivery's cursor and reports whether the
// delivery is new. Cursor-less frames (a router predating stamping)
// always pass; replayed duplicates — at-least-once on the wire — are
// filtered here, so consumers see exactly-once.
func (c *Client) advanceCursor(cursor uint64) bool {
	if cursor == 0 {
		return true
	}
	for {
		cur := c.cursor.Load()
		if cursor <= cur {
			return false
		}
		if c.cursor.CompareAndSwap(cur, cursor) {
			return true
		}
	}
}

// dispatch routes one delivery to the matched subscription handles.
func (c *Client) dispatch(d Delivery) {
	c.mu.Lock()
	targets := make([]*Subscription, 0, len(d.SubIDs))
	if len(d.SubIDs) == 0 {
		// Router did not name subscriptions: offer to every handle.
		for _, s := range c.subs {
			targets = append(targets, s)
		}
	} else {
		for _, id := range d.SubIDs {
			if s, ok := c.subs[id]; ok {
				targets = append(targets, s)
			}
		}
	}
	c.mu.Unlock()
	for _, s := range targets {
		s.offer(d)
	}
}

// decryptDelivery recovers a payload, refreshing the group key when
// the publication is from a newer epoch.
func (c *Client) decryptDelivery(m *Message) Delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.groupOpener == nil || m.Epoch > c.epoch {
		if err := c.refreshGroupKeyLocked(); err != nil {
			return Delivery{Epoch: m.Epoch, Err: fmt.Errorf("broker: cannot obtain group key: %w", err)}
		}
	}
	if m.Epoch != c.epoch {
		return Delivery{Epoch: m.Epoch, Err: fmt.Errorf("broker: no key for epoch %d", m.Epoch)}
	}
	plain, err := c.groupOpener.OpenAppend(m.Payload, nil)
	if err != nil {
		return Delivery{Epoch: m.Epoch, Err: fmt.Errorf("broker: decrypting payload: %w", err)}
	}
	return Delivery{Payload: plain, Epoch: m.Epoch}
}

// Close shuts down the client's connections, closes every Subscription
// handle, and waits for the delivery pump. Safe to call more than
// once.
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.done) })
	c.mu.Lock()
	if c.routerConn != nil {
		_ = c.routerConn.Close()
	}
	if c.pubConn != nil {
		_ = c.pubConn.Close()
	}
	subs := make([]*Subscription, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.subs = make(map[uint64]*Subscription)
	c.mu.Unlock()
	for _, s := range subs {
		s.closeHandle()
	}
	c.wg.Wait()
}
