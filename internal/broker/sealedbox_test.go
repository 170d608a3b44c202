package broker

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"scbr/internal/scrypto"
)

// relayClient connects a fresh client to the system's publisher through
// a relay that, while flip is set, flips the last byte of the blob of
// every message of type at before passing it on — a body byte of the
// sealed box, not its ephemeral key.
func relayClient(t *testing.T, sys *testSystem, id string, at MsgType, flip *atomic.Bool) *Client {
	t.Helper()
	c, err := NewClient(id)
	if err != nil {
		t.Fatal(err)
	}
	clientSide, relayUp := net.Pipe()
	relayDown, pubSide := net.Pipe()
	go sys.publisher.ServeClient(bg, pubSide)
	pass := func(from, to net.Conn) {
		defer to.Close()
		for {
			m, err := Recv(from)
			if err != nil {
				return
			}
			if m.Type == at && flip.Load() && len(m.Blob) > 0 {
				m.Blob[len(m.Blob)-1] ^= 1
			}
			if err := Send(to, m); err != nil {
				return
			}
		}
	}
	go pass(relayUp, relayDown)
	go pass(relayDown, relayUp)
	c.ConnectPublisher(clientSide, sys.publisher.PublicKey())
	t.Cleanup(c.Close)
	return c
}

// TestTamperedSealedBox: {s}PK and the group key travel in sealed
// boxes, so one flipped body byte is refused. A tampered subscription
// gets the publisher's scrypto.ErrAuthentication back (as error text:
// the wire carries no code for it) and registers nothing; a tampered
// group-key blob fails with scrypto.ErrAuthentication at the client and
// installs no key. Each case then runs untampered through the same
// relay to show the flip was the only fault.
func TestTamperedSealedBox(t *testing.T) {
	t.Run("subscribe", func(t *testing.T) {
		sys := newTestSystem(t)
		var flip atomic.Bool
		flip.Store(true)
		c := relayClient(t, sys, "alice", TypeSubscribe, &flip)
		if _, err := c.Subscribe(bg, halSpec(50)); err == nil || !strings.Contains(err.Error(), scrypto.ErrAuthentication.Error()) {
			t.Fatalf("tampered subscription: err = %v, want the publisher's %q", err, scrypto.ErrAuthentication)
		}
		if got := sys.router.DataPlaneStats().Subscriptions; got != 0 {
			t.Fatalf("tampered subscription registered %d subscriptions", got)
		}
		if c.Epoch() != 0 {
			t.Fatalf("client installed a group key at epoch %d", c.Epoch())
		}
		flip.Store(false)
		if _, err := c.Subscribe(bg, halSpec(50)); err != nil {
			t.Fatalf("untampered subscription: %v", err)
		}
		if got := sys.router.DataPlaneStats().Subscriptions; got != 1 {
			t.Fatalf("untampered subscription: %d subscriptions, want 1", got)
		}
	})
	t.Run("subscribe-ok", func(t *testing.T) {
		sys := newTestSystem(t)
		var flip atomic.Bool
		flip.Store(true)
		c := relayClient(t, sys, "alice", TypeSubscribeOK, &flip)
		if _, err := c.Subscribe(bg, halSpec(50)); !errors.Is(err, scrypto.ErrAuthentication) {
			t.Fatalf("tampered group key: err = %v, want scrypto.ErrAuthentication", err)
		}
		c.mu.Lock()
		opener, epoch := c.groupOpener, c.epoch
		c.mu.Unlock()
		if opener != nil || epoch != 0 {
			t.Fatalf("tampered group key installed (epoch %d)", epoch)
		}
		flip.Store(false)
		if err := c.RefreshGroupKey(); err != nil || c.Epoch() != sys.publisher.GroupEpoch() {
			t.Fatalf("untampered group key: epoch %d, err %v", c.Epoch(), err)
		}
	})
}

// TestAdmitRejectsNonX25519Key: a client's response key must be X25519;
// an RSA or a P-256 key is refused by type before anything is admitted.
func TestAdmitRejectsNonX25519Key(t *testing.T) {
	sys := newTestSystem(t)
	rsaKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  any
		want string
	}{
		{&rsaKey.PublicKey, "is *rsa.PublicKey, want X25519"},
		{&p256.PublicKey, "is *ecdsa.PublicKey, want X25519"},
	} {
		der, err := x509.MarshalPKIXPublicKey(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		clientSide, pubSide := net.Pipe()
		go sys.publisher.ServeClient(bg, pubSide)
		blob, err := scrypto.SealTo(sys.publisher.PublicKey(), subscriptionLabel, encodeSpec(t, halSpec(50)))
		if err != nil {
			t.Fatal(err)
		}
		if err := Send(clientSide, &Message{Type: TypeSubscribe, ClientID: "mallory", Blob: blob, PubKey: der}); err != nil {
			t.Fatal(err)
		}
		reply, err := Recv(clientSide)
		if err != nil {
			t.Fatal(err)
		}
		_ = clientSide.Close()
		if reply.Type != TypeError || !strings.Contains(reply.Err, tc.want) {
			t.Fatalf("%T response key: reply %q %q, want an error naming %q", tc.key, reply.Type, reply.Err, tc.want)
		}
	}
	if n := sys.publisher.Registry().Len(); n != 0 {
		t.Fatalf("%d clients admitted", n)
	}
	if got := sys.router.DataPlaneStats().Subscriptions; got != 0 {
		t.Fatalf("%d subscriptions registered", got)
	}
}
