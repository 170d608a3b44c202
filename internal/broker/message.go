// Package broker implements the three roles of Figure 3 — the service
// provider's publisher, the infrastructure's routing engine, and the
// clients — and the six-step protocol of Figure 4 on top of real
// connections:
//
//	① client  → publisher: {s}PK (subscription under the publisher key)
//	② publisher → router:  {s}SK, MAC-tagged, after admission control
//	③ router (enclave):    validate, decrypt, index the subscription
//	④ publisher → router:  {header}SK + {payload}GK publications
//	⑤ router (enclave):    decrypt header, match against the index
//	⑥ router → clients:    forward the still-encrypted payload
//
// Steps ② and ③ have one form: a register-batch frame of n ≥ 1
// subscriptions for one client under one MAC tag, whether it carries a
// client's single Subscribe or a bulk-loaded population. The tag is
// checked where outside input arrives; a registration
// replayed from sealed state or moved between slices is authenticated
// by the enclave seal it travelled under and is not re-verified.
//
// Before any of this, the publisher remote-attests the router's
// enclave and provisions SK (internal/attest). Payload group keys
// rotate on revocation so departed clients cannot read new messages.
package broker

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"scbr/internal/attest"
	"scbr/internal/wire"
)

// MsgType discriminates protocol messages.
type MsgType string

// Protocol message types.
const (
	// Client ↔ publisher.
	TypeSubscribe     MsgType = "subscribe"
	TypeSubscribeOK   MsgType = "subscribe-ok"
	TypeUnsubscribe   MsgType = "unsubscribe"
	TypeUnsubscribeOK MsgType = "unsubscribe-ok"
	TypeGroupKey      MsgType = "groupkey"
	TypeGroupKeyOK    MsgType = "groupkey-ok"

	// Publisher ↔ router.
	TypeProvision    MsgType = "provision"
	TypeProvisionReq MsgType = "provision-req"
	TypeProvisionKey MsgType = "provision-key"
	TypeProvisionOK  MsgType = "provision-ok"
	// TypeRegisterBatch is the registration frame: n ≥ 1 registrations
	// for one client, authenticated by one MAC tag over the whole frame
	// under a key derived from SK (see registrationTag) — one tag
	// however many subscriptions, which is what makes
	// million-subscription populations affordable. Items carry the
	// scheme-encoded (and, for sealed-exchange schemes, SK-sealed)
	// subscription blobs; their Payload does not travel. The ack echoes
	// the assigned IDs in item order.
	TypeRegisterBatch   MsgType = "register-batch"
	TypeRegisterBatchOK MsgType = "register-batch-ok"
	TypeRemove          MsgType = "remove"
	TypeRemoveOK        MsgType = "remove-ok"
	TypePublish         MsgType = "publish"
	TypePublishBatch    MsgType = "publish-batch"

	// Client ↔ router.
	TypeListen   MsgType = "listen"
	TypeListenOK MsgType = "listen-ok"
	TypeDeliver  MsgType = "deliver"

	// Router ↔ router (federation overlay). PEER_HELLO/PEER_WELCOME
	// carry the mutual attestation handshake; after it, SUB_DIGEST
	// carries incremental subscription-digest updates and FWD_PUB
	// carries publications forwarded toward matching downstreams, both
	// sealed under the per-link key the handshake derived.
	TypePeerHello   MsgType = "peer-hello"
	TypePeerWelcome MsgType = "peer-welcome"
	TypeSubDigest   MsgType = "sub-digest"
	TypeFwdPub      MsgType = "fwd-pub"

	// Any direction.
	TypeError MsgType = "error"
)

// BatchItem is one publication of a publish-batch message: the
// SK-encrypted header plus the group-key-encrypted payload. It is the
// wire codec's item type, so a decoded batch needs no conversion.
type BatchItem = wire.Item

// Message is the single wire envelope; unused fields stay empty.
// Control messages travel as JSON, []byte fields as Base64 text —
// the paper's serialisation. The six data messages (publish,
// publish-batch, deliver, fwd-pub, register-batch and its ack) travel
// in internal/wire's binary data-frame codec, which carries exactly
// the fields of each type's layout: Scheme/Epoch/Blob/Payload,
// Scheme/Epoch/Items, Epoch/Cursor/SubIDs/Payload, Blob,
// ClientID/Scheme/Tag/Items' blobs, and SubIDs. A field set outside
// its type's layout does not travel.
type Message struct {
	Type     MsgType `json:"type"`
	ClientID string  `json:"client_id,omitempty"`
	Router   string  `json:"router,omitempty"` // subscribe/unsubscribe: the client's home router
	// Scheme tags provisioning, registration, publication, and listen
	// frames with the matching-scheme ID their blobs are encoded under
	// (internal/scheme). Routers reject frames tagged with a scheme
	// other than their own with ErrSchemeMismatch; the empty tag means
	// the default sgx-plain scheme, so pre-scheme peers interoperate
	// with default-scheme routers unchanged.
	Scheme string   `json:"scheme,omitempty"`
	SubID  uint64   `json:"sub_id,omitempty"`
	SubIDs []uint64 `json:"sub_ids,omitempty"` // deliver: which subscriptions matched; register-batch-ok: the issued IDs
	Epoch  uint64   `json:"epoch,omitempty"`
	// Cursor is the per-client delivery sequence: stamped on every
	// deliver frame, presented by a resuming listen (last seen), and
	// echoed on listen-ok (the router's current position).
	Cursor uint64 `json:"cursor,omitempty"`
	// Resume asks a listen to replay retained deliveries past Cursor.
	Resume bool `json:"resume,omitempty"`
	// Gap on listen-ok counts deliveries a resuming listener missed
	// that had already left the replay ring — unrecoverable loss.
	Gap     uint64        `json:"gap,omitempty"`
	Blob    []byte        `json:"blob,omitempty"`    // encrypted subscription / header / key material
	Payload []byte        `json:"payload,omitempty"` // encrypted publication payload
	Items   []BatchItem   `json:"items,omitempty"`   // publish-batch publications, register-batch subscriptions
	Tag     []byte        `json:"tag,omitempty"`     // register-batch: registrationTag
	PubKey  []byte        `json:"pub_key,omitempty"` // PKIX-encoded public key
	Quote   *attest.Quote `json:"quote,omitempty"`
	Err     string        `json:"err,omitempty"`
	Code    string        `json:"code,omitempty"` // machine-readable error class

	// enqueuedAt stamps a deliver frame when the delivery layer accepts
	// it, so the writer can record the enqueue→write latency when the
	// frame leaves on the wire. Unexported: it never serialises, and
	// replayed frames (whose stamp describes a previous life) are not
	// re-recorded.
	enqueuedAt time.Time
}

// dataTag maps the six data message types onto their wire tag; every
// other type is a JSON control frame.
func dataTag(t MsgType) (byte, bool) {
	switch t {
	case TypePublish:
		return wire.TagPublish, true
	case TypePublishBatch:
		return wire.TagPublishBatch, true
	case TypeDeliver:
		return wire.TagDeliver, true
	case TypeFwdPub:
		return wire.TagFwdPub, true
	case TypeRegisterBatch:
		return wire.TagRegister, true
	case TypeRegisterBatchOK:
		return wire.TagRegisterOK, true
	}
	return 0, false
}

// dataTypes is dataTag's inverse, indexed by tag.
var dataTypes = [...]MsgType{
	wire.TagPublish:      TypePublish,
	wire.TagPublishBatch: TypePublishBatch,
	wire.TagDeliver:      TypeDeliver,
	wire.TagFwdPub:       TypeFwdPub,
	wire.TagRegister:     TypeRegisterBatch,
	wire.TagRegisterOK:   TypeRegisterBatchOK,
}

// dataFrame is a data message's wire form under tag.
func (m *Message) dataFrame(tag byte) wire.DataFrame {
	return wire.DataFrame{
		Tag:      tag,
		ClientID: m.ClientID,
		Scheme:   m.Scheme,
		Epoch:    m.Epoch,
		Cursor:   m.Cursor,
		SubIDs:   m.SubIDs,
		Blob:     m.Blob,
		Payload:  m.Payload,
		MAC:      m.Tag,
		Items:    m.Items,
	}
}

// sendBuffer is one frame buffer: whole frames — prefix and body — are
// encoded into it back to back and leave in one Write, so the wire's
// hottest producers (delivery writers, peer links, the publisher's
// router connections) neither allocate per frame nor pay a syscall per
// frame. Send and sendBurst take theirs from a pool; a router
// connection keeps one as its write-behind queue (routerLink).
type sendBuffer struct {
	buf []byte
	enc *json.Encoder // control frames: encodes into buf through Write
}

// Write appends to the buffer; it is the json.Encoder's sink.
func (b *sendBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// sendBufMax caps the capacity a recycled buffer may retain; a
// one-off jumbo batch frame must not pin megabytes in the pool or in a
// router connection's queue.
const sendBufMax = 1 << 20

// burstMax bounds how many bytes of already-queued frames a writer
// gathers into one Write (sendBurst): past it the buffer is written
// and a new burst begins. A publisher call waits for queue space only
// while this much is already queued on its router connection.
const burstMax = 64 << 10

var sendBufPool = sync.Pool{New: func() any {
	b := &sendBuffer{}
	b.enc = json.NewEncoder(b)
	return b
}}

// appendFrame encodes m as one whole frame at the end of the buffer.
// A message that does not encode leaves the buffer as it was.
func (b *sendBuffer) appendFrame(m *Message) error {
	start := len(b.buf)
	b.buf = wire.BeginFrame(b.buf)
	var err error
	if tag, ok := dataTag(m.Type); ok {
		f := m.dataFrame(tag)
		b.buf, err = wire.AppendDataFrame(b.buf, &f)
	} else if err = b.enc.Encode(m); err == nil {
		b.buf = b.buf[:len(b.buf)-1] // drop the Encoder's trailing newline
	}
	if err == nil {
		err = wire.EndFrame(b.buf, start)
	}
	if err != nil {
		b.buf = b.buf[:start]
		return fmt.Errorf("broker: encoding %s: %w", m.Type, err)
	}
	return nil
}

// writeTo puts the buffered frames on w in a single Write.
func (b *sendBuffer) writeTo(w io.Writer) error {
	if _, err := w.Write(b.buf); err != nil {
		return fmt.Errorf("broker: writing frame: %w", err)
	}
	return nil
}

// Send encodes and frames one message through a pooled buffer and
// puts it on w in a single Write.
func Send(w io.Writer, m *Message) error {
	b := sendBufPool.Get().(*sendBuffer)
	b.buf = b.buf[:0]
	err := b.appendFrame(m)
	if err == nil {
		err = b.writeTo(w)
	}
	if cap(b.buf) <= sendBufMax {
		sendBufPool.Put(b)
	}
	return err
}

// sendBurst is Send for a queue-fed writer: it frames first and then
// whatever is already queued on ch behind it into one pooled buffer
// and puts the lot on w in a single Write — N frames under load are
// one syscall, and a lone frame leaves as soon as it is taken. A burst
// never waits: it takes at most what was queued when it started, and
// stops early once the buffer holds burstMax bytes. The frames taken
// are returned in order (in sent's storage), written or not — on an
// error none of them is known to have reached the peer.
func sendBurst(w io.Writer, first *Message, ch <-chan *Message, sent []*Message) ([]*Message, error) {
	b := sendBufPool.Get().(*sendBuffer)
	b.buf = b.buf[:0]
	sent = append(sent[:0], first)
	err := b.appendFrame(first)
	for queued := len(ch); err == nil && queued > 0 && len(b.buf) < burstMax; queued-- {
		select {
		case m := <-ch:
			sent = append(sent, m)
			err = b.appendFrame(m)
		default:
			queued = 0 // an evicting enqueue (OverflowDropOldest) took it first
		}
	}
	if err == nil {
		err = b.writeTo(w)
	}
	if cap(b.buf) <= sendBufMax {
		sendBufPool.Put(b)
	}
	return sent, err
}

// Recv reads and decodes one message. The frame is read into an
// allocation of its own, which a data message's []byte fields are
// views of: the message owns its bytes for as long as anything
// references them. Given a raw connection it reads exactly
// one frame and never past it; connections that carry more than a
// handshake are read through a bufferedConn instead.
func Recv(r io.Reader) (*Message, error) {
	raw, err := wire.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if !wire.IsDataFrame(raw) {
		m := new(Message)
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, fmt.Errorf("broker: decoding message: %w", err)
		}
		return m, nil
	}
	var f wire.DataFrame
	if err := wire.DecodeDataFrame(raw, &f); err != nil {
		return nil, fmt.Errorf("broker: decoding message: %w", err)
	}
	return &Message{
		Type:     dataTypes[f.Tag],
		ClientID: f.ClientID,
		Scheme:   f.Scheme,
		Epoch:    f.Epoch,
		Cursor:   f.Cursor,
		SubIDs:   f.SubIDs,
		Blob:     f.Blob,
		Payload:  f.Payload,
		Tag:      f.MAC,
		Items:    f.Items,
	}, nil
}

// bufferedConn is a connection whose reads go through one buffered
// reader it owns from accept or dial on, so a burst of frames is one
// read syscall. Every reader of the connection goes through it —
// nothing can strand buffered bytes by reading the raw conn — while
// writes, deadlines and Close pass straight through.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func newBufferedConn(conn net.Conn) *bufferedConn {
	return &bufferedConn{Conn: conn, r: bufio.NewReaderSize(conn, burstMax)}
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// discard reads and drops whatever the peer still sends until the
// connection ends. It lets go of the read buffer first: a listening
// client's connection sits here for its whole life, and nothing it
// sends is wanted. No other Read may follow or run beside it.
func (c *bufferedConn) discard() {
	c.r = nil
	var scratch [512]byte
	for {
		if _, err := c.Conn.Read(scratch[:]); err != nil {
			return
		}
	}
}

// sendErr reports a protocol error to the peer (best effort),
// stamping the machine-readable class code so the sentinel taxonomy
// survives the hop.
func sendErr(w io.Writer, err error) {
	_ = Send(w, &Message{Type: TypeError, Err: err.Error(), Code: codeFor(err)})
}

// sendErrf is sendErr for ad-hoc protocol violations without a
// sentinel class.
func sendErrf(w io.Writer, format string, args ...any) {
	sendErr(w, fmt.Errorf(format, args...))
}

// errOf converts an error reply into a Go error, re-wrapping the
// sentinel named by the reply's class code so errors.Is matches
// across the network boundary.
func errOf(m *Message) error {
	if m.Type != TypeError {
		return nil
	}
	if sentinel := sentinelFor(m.Code); sentinel != nil {
		return fmt.Errorf("broker: peer error: %w (%s)", sentinel, m.Err)
	}
	return fmt.Errorf("broker: peer error: %s", m.Err)
}

// expect validates a reply's type.
func expect(m *Message, want MsgType) error {
	if err := errOf(m); err != nil {
		return err
	}
	if m.Type != want {
		return fmt.Errorf("broker: unexpected reply %q, want %q", m.Type, want)
	}
	return nil
}
