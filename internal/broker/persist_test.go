package broker

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"

	"scbr/internal/attest"
	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

// restartFixture builds a full system, registers subscriptions, seals,
// and then simulates a router restart on the same device with the same
// enclave image.
type restartFixture struct {
	t      *testing.T
	dev    *sgx.Device
	quoter *attest.Quoter
	signer *scrypto.KeyPair
	cfg    RouterConfig
}

func newRestartFixture(t *testing.T) *restartFixture {
	t.Helper()
	dev, err := sgx.NewDevice([]byte("persist-test"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "persist-platform")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &restartFixture{
		t:      t,
		dev:    dev,
		quoter: quoter,
		signer: signer,
		cfg: RouterConfig{
			EnclaveImage:  []byte("persistent router image"),
			EnclaveSigner: signer.Public(),
		},
	}
}

func (f *restartFixture) newRouter() *Router {
	f.t.Helper()
	r, err := NewRouter(f.dev, f.quoter, f.cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	return r
}

// populate provisions the router and registers n subscriptions through
// the real protocol, returning the publisher and subscription IDs.
func (f *restartFixture) populate(r *Router, n int) (*Publisher, []uint64) {
	f.t.Helper()
	ias := attest.NewService()
	ias.RegisterPlatform(f.quoter.PlatformID(), f.quoter.AttestationKey())
	pub, err := NewPublisher(ias, r.Identity())
	if err != nil {
		f.t.Fatal(err)
	}
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.handleConn(server)
	}()
	f.t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
		<-done
	})
	if err := pub.ConnectRouter(bg, client); err != nil {
		f.t.Fatal(err)
	}
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		raw := encodeSpec(f.t, halSpec(float64(40+i)))
		encSK, err := scrypto.Seal(pubSK(pub), raw)
		if err != nil {
			f.t.Fatal(err)
		}
		reply, err := pub.routerRequest("", registerFrame(pub, "alice", encSK))
		if err != nil {
			f.t.Fatal(err)
		}
		if err := expect(reply, TypeRegisterBatchOK); err != nil {
			f.t.Fatal(err)
		}
		ids = append(ids, reply.SubIDs...)
	}
	return pub, ids
}

// registerFrame builds the registration frame the publisher would send
// for clientID's already-encoded blobs: one tag over them all.
func registerFrame(pub *Publisher, clientID string, blobs ...[]byte) *Message {
	items := make([]BatchItem, len(blobs))
	for i, blob := range blobs {
		items[i] = BatchItem{Blob: blob}
	}
	return &Message{Type: TypeRegisterBatch, ClientID: clientID, Scheme: pub.Scheme(), Items: items,
		Tag: registrationTag(pubSK(pub), clientID, items)}
}

func TestSealRestoreRoundTrip(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	_, ids := f.populate(r1, 5)
	if len(ids) != 5 {
		t.Fatalf("ids = %v", ids)
	}
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh router process on the same machine with the
	// same measured image. No re-attestation needed.
	r2 := f.newRouter()
	if err := r2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := r2.DataPlaneStats().Subscriptions; got != 5 {
		t.Fatalf("restored %d subscriptions, want 5", got)
	}
	// The restored router matches with the original subscription IDs.
	matches := matchOnSlice0(t, r2, halQuote(40.5))
	if len(matches) == 0 {
		t.Fatal("restored router matches nothing")
	}
	for _, m := range matches {
		found := false
		for _, id := range ids {
			if m.SubID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("restored subscription ID %d was never issued (%v)", m.SubID, ids)
		}
	}
}

func TestRestoreRejectsRollback(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	f.populate(r1, 2)
	stale, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	// Seal again (e.g. after more registrations): the counter advances
	// and the first snapshot becomes stale.
	fresh, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r2 := f.newRouter()
	if err := r2.RestoreState(stale); !errors.Is(err, ErrStateRollback) {
		t.Fatalf("stale snapshot accepted: %v", err)
	}
	r3 := f.newRouter()
	if err := r3.RestoreState(fresh); err != nil {
		t.Fatalf("fresh snapshot rejected: %v", err)
	}
}

// TestRestoreRefusesOldEnvelopeLayout: a snapshot sealed before the
// state format carried a version logs its {s}SK blobs as AES-CTR +
// HMAC-SHA256 envelopes (nonce(16) ‖ ciphertext ‖ tag(32)), which no
// longer open. Restore refuses it whole with ErrStateVersion before
// replaying anything: the router stays unprovisioned and empty.
func TestRestoreRefusesOldEnvelopeLayout(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	pub, _ := f.populate(r1, 3)
	sk := pubSK(pub)
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r1.Enclave().Unseal(blob, counterAAD(f.dev.ReadCounter(stateCounter)))
	if err != nil {
		t.Fatal(err)
	}
	var state routerState
	if err := json.Unmarshal(raw, &state); err != nil {
		t.Fatal(err)
	}
	if state.Version != stateVersion || len(state.Log) != 3 {
		t.Fatalf("sealed state: version %d with %d entries, want %d with 3", state.Version, len(state.Log), stateVersion)
	}
	// Rewrite the snapshot as the older format sealed it: no version,
	// every logged blob in the CTR + HMAC layout.
	block, err := aes.NewCipher(sk.Enc[:])
	if err != nil {
		t.Fatal(err)
	}
	for i, ent := range state.Log {
		plain, err := scrypto.Open(sk, ent.Blob)
		if err != nil {
			t.Fatal(err)
		}
		env := make([]byte, aes.BlockSize+len(plain))
		if _, err := rand.Read(env[:aes.BlockSize]); err != nil {
			t.Fatal(err)
		}
		cipher.NewCTR(block, env[:aes.BlockSize]).XORKeyStream(env[aes.BlockSize:], plain)
		mac := hmac.New(sha256.New, sk.MAC[:])
		mac.Write(env)
		state.Log[i].Blob = mac.Sum(env)
	}
	state.Version = 0
	var fields map[string]json.RawMessage
	if raw, err = json.Marshal(&state); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "version")
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	old, err := r1.Enclave().Seal(sgx.SealToMRENCLAVE, raw, counterAAD(f.dev.IncrementCounter(stateCounter)))
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	r2 := f.newRouter()
	t.Cleanup(r2.Close)
	if err := r2.RestoreState(old); !errors.Is(err, ErrStateVersion) {
		t.Fatalf("unversioned snapshot: err = %v, want ErrStateVersion", err)
	}
	if got := r2.DataPlaneStats().Subscriptions; got != 0 {
		t.Fatalf("refused snapshot left %d subscriptions", got)
	}
	if _, err := r2.SealState(); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("refused snapshot provisioned the router: SealState err = %v", err)
	}
}

func TestRestoreRejectsDifferentImage(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	f.populate(r1, 1)
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewRouter(f.dev, f.quoter, RouterConfig{
		EnclaveImage:  []byte("DIFFERENT router image"),
		EnclaveSigner: f.signer.Public(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(blob); err == nil {
		t.Fatal("different enclave image unsealed foreign state")
	}
}

func TestRestoreRequiresFreshRouter(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	f.populate(r1, 1)
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.RestoreState(blob); err == nil {
		t.Fatal("restore onto a provisioned router succeeded")
	}
}

func TestSealRequiresProvisioning(t *testing.T) {
	f := newRestartFixture(t)
	r := f.newRouter()
	if _, err := r.SealState(); err == nil {
		t.Fatal("sealed an unprovisioned router")
	}
}

// Helpers bridging test access to publisher internals.

func pubSK(p *Publisher) *scrypto.SymmetricKey { return p.sk }

func encodeSpec(t *testing.T, spec pubsub.SubscriptionSpec) []byte {
	t.Helper()
	raw, err := pubsub.EncodeSubscriptionSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// matchOnSlice0 matches the event spec on slice 0's sgx-plain engine —
// the whole index on a one-slice router — under the partition lock, as
// the slice's worker does.
func matchOnSlice0(t *testing.T, r *Router, spec pubsub.EventSpec) []core.MatchResult {
	t.Helper()
	ev, err := spec.Intern(r.schema)
	if err != nil {
		t.Fatal(err)
	}
	p := r.p0
	p.mu.Lock()
	defer p.mu.Unlock()
	plain, ok := p.slice.(*scheme.PlainSlice)
	if !ok {
		t.Fatalf("slice 0 runs %T, not the containment engine", p.slice)
	}
	matches, err := plain.Engine().Match(ev)
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestRestartEndToEnd exercises the full §2 restart story over live
// connections: a provisioned, populated router seals its state and
// "crashes"; a fresh router process restores the snapshot without
// re-attestation; clients reconnect their delivery channels and keep
// receiving under their original subscription IDs.
func TestRestartEndToEnd(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		_ = r1.Serve(bg, ln1)
	}()

	ias := attest.NewService()
	ias.RegisterPlatform(f.quoter.PlatformID(), f.quoter.AttestationKey())
	pub, err := NewPublisher(ias, r1.Identity())
	if err != nil {
		t.Fatal(err)
	}
	conn1, err := net.Dial("tcp", ln1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.ConnectRouter(bg, conn1); err != nil {
		t.Fatal(err)
	}

	pubLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// The accept loop only exits once the listener closes, so the
	// listener must close before the wait (defers run LIFO).
	defer func() {
		_ = pubLn.Close()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := pubLn.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				pub.ServeClient(bg, c)
			}()
		}
	}()

	alice, err := NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	pc, err := net.Dial("tcp", pubLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice.ConnectPublisher(pc, pub.PublicKey())
	lc1, err := net.Dial("tcp", ln1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Resume rather than Attach: the Subscription handle must outlive
	// the first router's connection.
	if _, err := alice.Resume(bg, lc1); err != nil {
		t.Fatal(err)
	}
	sub, err := alice.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(bg, halQuote(42), []byte("before restart")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, sub.Deliveries()); d.Err != nil || string(d.Payload) != "before restart" {
		t.Fatalf("pre-restart delivery = %+v", d)
	}

	// Seal, crash, restore on a new port.
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	<-done1

	r2 := f.newRouter()
	if err := r2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		_ = r2.Serve(bg, ln2)
	}()
	t.Cleanup(func() {
		r2.Close()
		<-done2
	})

	// The publisher reconnects its data path. No provisioning round:
	// the restored enclave already holds SK, so publications flow
	// directly.
	conn2, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pub.mu.Lock()
	pub.routerConn = newRouterLink(conn2)
	pub.mu.Unlock()

	// Alice re-binds her delivery channel on the new router.
	lc2, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Resume(bg, lc2); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(bg, halQuote(43), []byte("after restart")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, sub.Deliveries()); d.Err != nil || string(d.Payload) != "after restart" {
		t.Fatalf("post-restart delivery = %+v", d)
	}
}

// TestRestoreSeedsDeliveryCursors: per-client delivery cursors ride
// the sealed snapshot, so a client resuming against the restored
// router continues the same numbering — with the deliveries matched
// before the restart accounted as an explicit gap (the replay rings
// are not sealed).
func TestRestoreSeedsDeliveryCursors(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	defer r1.Close()
	f.populate(r1, 2)

	// Bind carol's delivery channel and run three deliveries through
	// the table, of which carol processes only the first two.
	server, client := net.Pipe()
	if err := r1.delivery.attach("carol", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	for i := 1; i <= 3; i++ {
		r1.delivery.enqueue("carol", &Message{Type: TypeDeliver, Payload: []byte{byte(i)}})
	}
	for i := 1; i <= 2; i++ {
		if m := mustRecv(t, client); m.Cursor != uint64(i) {
			t.Fatalf("cursor %d, want %d", m.Cursor, i)
		}
	}
	_ = client.Close()

	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r2 := f.newRouter()
	defer r2.Close()
	if err := r2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}

	// Carol resumes at cursor 2 against the restored router: the
	// numbering continues at 3, and the one delivery she missed across
	// the restart is reported as an unrecoverable gap, not silence.
	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := r2.delivery.attach("carol", server2, &Message{Type: TypeListenOK}, 2, true); err != nil {
		t.Fatal(err)
	}
	hello := mustRecv(t, client2)
	if hello.Cursor != 3 || hello.Gap != 1 {
		t.Fatalf("post-restore resume = cursor %d gap %d, want cursor 3 gap 1", hello.Cursor, hello.Gap)
	}
	// New deliveries continue the sealed numbering.
	r2.delivery.enqueue("carol", &Message{Type: TypeDeliver, Payload: []byte{4}})
	if m := mustRecv(t, client2); m.Cursor != 4 {
		t.Fatalf("post-restore delivery cursor = %d, want 4", m.Cursor)
	}
}
