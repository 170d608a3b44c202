package broker

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
)

// makeBulkSpecs builds n distinct subscriptions.
func makeBulkSpecs(n int) []pubsub.SubscriptionSpec {
	specs := make([]pubsub.SubscriptionSpec, n)
	for i := range specs {
		specs[i] = halSpec(float64(10 + i))
	}
	return specs
}

// admitTestClient registers a fresh response key for id so RegisterBulk
// passes admission without a wire Subscribe.
func admitTestClient(t *testing.T, pub *Publisher, id string) {
	t.Helper()
	keys, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Registry().Admit(id, keys.Public()); err != nil {
		t.Fatal(err)
	}
}

// One batch frame registers a whole population: IDs come back in spec
// order, the data plane holds them all, and ownership supports removal.
func TestRegisterBulk(t *testing.T) {
	f := newRestartFixture(t)
	f.cfg.Partitions = 4
	r := f.newRouter()
	t.Cleanup(r.Close)
	pub, _ := f.populate(r, 0)
	admitTestClient(t, pub, "bulk")

	const n = 50
	ids, err := pub.RegisterBulk(bg, "bulk", "", makeBulkSpecs(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("got %d IDs, want %d", len(ids), n)
	}
	seen := make(map[uint64]bool, n)
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("bad or duplicate subscription ID %d", id)
		}
		seen[id] = true
	}
	if got := r.DataPlaneStats().Subscriptions; got != n {
		t.Fatalf("data plane holds %d subscriptions, want %d", got, n)
	}
	// Bulk-registered subscriptions are removable like any other.
	reply, err := pub.routerRequest("", &Message{Type: TypeRemove, ClientID: "bulk", SubID: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := expect(reply, TypeRemoveOK); err != nil {
		t.Fatal(err)
	}
	if got := r.DataPlaneStats().Subscriptions; got != n-1 {
		t.Fatalf("data plane holds %d subscriptions after removal, want %d", got, n-1)
	}
}

// An unadmitted client cannot bulk-register.
func TestRegisterBulkRequiresAdmission(t *testing.T) {
	f := newRestartFixture(t)
	r := f.newRouter()
	t.Cleanup(r.Close)
	pub, _ := f.populate(r, 0)
	if _, err := pub.RegisterBulk(bg, "ghost", "", makeBulkSpecs(1)); err == nil {
		t.Fatal("bulk registration for unadmitted client succeeded")
	}
}

// A batch whose tag does not cover its items is rejected whole: no item
// registers.
func TestRegisterBatchBadTag(t *testing.T) {
	f := newRestartFixture(t)
	r := f.newRouter()
	t.Cleanup(r.Close)
	pub, _ := f.populate(r, 0)

	raw := encodeSpec(t, halSpec(50))
	enc, err := scrypto.Seal(pubSK(pub), raw)
	if err != nil {
		t.Fatal(err)
	}
	// A tag over a different client binding — must not verify.
	m := registerFrame(pub, "mallory", enc)
	m.ClientID = "alice"
	reply, err := pub.routerRequest("", m)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || !strings.Contains(reply.Err, "tag") {
		t.Fatalf("batch with a foreign tag accepted: %+v", reply)
	}
	if got := r.DataPlaneStats().Subscriptions; got != 0 {
		t.Fatalf("data plane holds %d subscriptions after rejected batch", got)
	}
}

// Logged entries carry no tag of their own and survive
// seal/restore: the sealed blob's AEAD authenticates them, whether they
// arrived one to a frame or twenty.
func TestRegisterBulkSealRestore(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	pub, _ := f.populate(r1, 2) // two one-item frames too
	admitTestClient(t, pub, "bulk")
	const n = 20
	if _, err := pub.RegisterBulk(bg, "bulk", "", makeBulkSpecs(n)); err != nil {
		t.Fatal(err)
	}
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	r2 := f.newRouter()
	t.Cleanup(r2.Close)
	if err := r2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := r2.DataPlaneStats().Subscriptions; got != n+2 {
		t.Fatalf("restored data plane holds %d subscriptions, want %d", got, n+2)
	}
}

// registrationBytesRef is the byte string registrationTag MACs, built
// field by field: the reference the streamed tag is held to.
func registrationBytesRef(clientID string, items []BatchItem) []byte {
	b := []byte(registrationLabel + "\x00")
	b = binary.LittleEndian.AppendUint64(b, uint64(len(clientID)))
	b = append(b, clientID...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(items)))
	for _, it := range items {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(it.Blob)))
		b = append(b, it.Blob...)
	}
	return b
}

// unprefixedBytesRef is what the RSA-signed digest used to cover: the
// client ID without its length and no item count.
func unprefixedBytesRef(clientID string, items []BatchItem) []byte {
	b := []byte(registrationLabel + "\x00" + clientID)
	for _, it := range items {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(it.Blob)))
		b = append(b, it.Blob...)
	}
	return b
}

func hmacSHA256(key, msg []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// relabel moves a frame's first item into its client ID the way the
// unprefixed encoding could not tell apart: (c, [b1, b2, …]) becomes
// (c ‖ le64(|b1|) ‖ b1, [b2, …]).
func relabel(clientID string, items []BatchItem) (string, []BatchItem) {
	c := binary.LittleEndian.AppendUint64([]byte(clientID), uint64(len(items[0].Blob)))
	return string(append(c, items[0].Blob...)), items[1:]
}

// TestRegistrationTagUnambiguous holds the streamed tag to the
// field-by-field reference bytes under K_reg over random frames, and
// shows the frames the unprefixed encoding confused, and the SK
// envelope MAC, each get a different tag.
func TestRegistrationTagUnambiguous(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	sk, err := scrypto.NewSymmetricKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	kReg := scrypto.DeriveKey(sk.MAC[:], registrationLabel, sha256.Size)
	randBytes := func(max int) []byte {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	for i := 0; i < 200; i++ {
		clientID := string(randBytes(12))
		items := make([]BatchItem, 2+rng.Intn(3))
		for j := range items {
			items[j] = BatchItem{Blob: randBytes(40)}
		}
		tag := registrationTag(sk, clientID, items)
		ref := registrationBytesRef(clientID, items)
		if !hmac.Equal(tag, hmacSHA256(kReg, ref)) {
			t.Fatalf("seed %d, frame %d: tag is not HMAC(K_reg) over the reference bytes", seed, i)
		}
		c2, items2 := relabel(clientID, items)
		if string(unprefixedBytesRef(clientID, items)) != string(unprefixedBytesRef(c2, items2)) {
			t.Fatalf("seed %d, frame %d: the re-labelled frame does not collide under the old encoding", seed, i)
		}
		if hmac.Equal(tag, registrationTag(sk, c2, items2)) {
			t.Fatalf("seed %d, frame %d: re-labelled frame %q shares the tag of %q", seed, i, c2, clientID)
		}
		// Domain separation, both ways: SK's envelope MAC over the same
		// bytes is not the registration tag, and the registration tag
		// does not open as an envelope over them.
		if hmac.Equal(tag, hmacSHA256(sk.MAC[:], ref)) {
			t.Fatalf("seed %d, frame %d: registration tag equals the envelope MAC", seed, i)
		}
		if _, err := scrypto.Open(sk, append(ref, tag...)); !errors.Is(err, scrypto.ErrAuthentication) {
			t.Fatalf("seed %d, frame %d: registration tag opened as an envelope tag: %v", seed, i, err)
		}
	}
}

// TestRegistrationTagRejected sends frames whose tag does not cover
// them, one mutation each. Every one is refused by the tag check — one
// enclave entry on slice 0 and none elsewhere — and registers nothing.
func TestRegistrationTagRejected(t *testing.T) {
	f := newRestartFixture(t)
	f.cfg.Partitions = 2
	r := f.newRouter()
	t.Cleanup(r.Close)
	pub, _ := f.populate(r, 0)
	sk := pubSK(pub)
	sealed, err := scrypto.Seal(sk, encodeSpec(t, halSpec(50)))
	if err != nil {
		t.Fatal(err)
	}
	// The first blob is text so that a client ID built from it is too:
	// JSON carries it byte for byte.
	base := func() *Message { return registerFrame(pub, "alice", []byte("blob-one"), sealed) }
	for _, tc := range []struct {
		name   string
		mutate func(m *Message)
	}{
		{"cross-client re-label", func(m *Message) { m.ClientID = "mallory" }},
		{"length-prefix re-label", func(m *Message) { m.ClientID, m.Items = relabel(m.ClientID, m.Items) }},
		{"dropped item", func(m *Message) { m.Items = m.Items[1:] }},
		{"truncated tag", func(m *Message) { m.Tag = m.Tag[:sha256.Size/2] }},
		{"empty tag", func(m *Message) { m.Tag = nil }},
		{"envelope-key tag", func(m *Message) { m.Tag = hmacSHA256(sk.MAC[:], registrationBytesRef(m.ClientID, m.Items)) }},
		{"envelope tag", func(m *Message) { m.Tag = sealed[len(sealed)-sha256.Size:] }},
	} {
		m := base()
		tc.mutate(m)
		before := r.SliceMeterSnapshots()
		reply, err := pub.routerRequest("", m)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != TypeError || !strings.Contains(reply.Err, "tag invalid") {
			t.Fatalf("%s: reply %+v, want the tag refusal", tc.name, reply)
		}
		after := r.SliceMeterSnapshots()
		for i := range after {
			want := uint64(0)
			if i == 0 {
				want = 1
			}
			if got := after[i].Transitions - before[i].Transitions; got != want {
				t.Fatalf("%s: slice %d took %d enclave entries, want %d", tc.name, i, got, want)
			}
		}
		if got := r.DataPlaneStats().Subscriptions; got != 0 {
			t.Fatalf("%s: data plane holds %d subscriptions", tc.name, got)
		}
	}
}

// TestRegistrationTagStaleKey: a frame tagged under the SK of an
// earlier provisioning is refused once the router is provisioned again,
// because K_reg is derived from SK and rotates with it.
func TestRegistrationTagStaleKey(t *testing.T) {
	f := newRestartFixture(t)
	r := f.newRouter()
	t.Cleanup(r.Close)
	old, _ := f.populate(r, 0)
	frame := func() *Message {
		enc, err := scrypto.Seal(pubSK(old), encodeSpec(t, halSpec(50)))
		if err != nil {
			t.Fatal(err)
		}
		return registerFrame(old, "alice", enc)
	}
	live, stale := frame(), frame()
	reply, err := old.routerRequest("", live)
	if err != nil {
		t.Fatal(err)
	}
	if err := expect(reply, TypeRegisterBatchOK); err != nil {
		t.Fatalf("frame under the live SK: %v", err)
	}
	f.populate(r, 0) // a second publisher provisions a fresh SK
	reply, err = old.routerRequest("", stale)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || !strings.Contains(reply.Err, "tag invalid") {
		t.Fatalf("frame under the previous SK: reply %+v, want the tag refusal", reply)
	}
	if got := r.DataPlaneStats().Subscriptions; got != 1 {
		t.Fatalf("data plane holds %d subscriptions, want the 1 registered before re-provisioning", got)
	}
}

// TestRestoreIgnoresSealedVerifyKey: a snapshot sealed while frames
// were RSA-signed carries the publisher's verify key. It restores, and
// its subscriptions match as they did before the seal.
func TestRestoreIgnoresSealedVerifyKey(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	pub, _ := f.populate(r1, 3)
	matchIDs := func(r *Router) []uint64 {
		matches := matchOnSlice0(t, r, halQuote(41.5))
		ids := make([]uint64, len(matches))
		for i, m := range matches {
			ids[i] = m.SubID
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	want := matchIDs(r1)
	if len(want) == 0 {
		t.Fatal("the sealed router matches nothing")
	}
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r1.Enclave().Unseal(blob, counterAAD(f.dev.ReadCounter(stateCounter)))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	der, err := x509.MarshalPKIXPublicKey(pub.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if fields["verify_key"], err = json.Marshal(der); err != nil {
		t.Fatal(err)
	}
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
	if err := r2.RestoreState(old); err != nil {
		t.Fatalf("snapshot with a verify key: %v", err)
	}
	if got := matchIDs(r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored router matches %v, want %v", got, want)
	}
}

// BenchmarkRegistrationTag prices step ②'s authenticator per frame: the
// publisher's tag plus the router's recomputation and constant-time
// compare, over frames of 1 and 32 sealed e80a1-sized blobs (132 B).
func BenchmarkRegistrationTag(b *testing.B) {
	sk, err := scrypto.NewSymmetricKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 32} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			items := make([]BatchItem, n)
			for i := range items {
				items[i] = BatchItem{Blob: make([]byte, 132)}
			}
			for b.Loop() {
				tag := registrationTag(sk, "bench-client", items)
				if !hmac.Equal(registrationTag(sk, "bench-client", items), tag) {
					b.Fatal("tag does not verify")
				}
			}
		})
	}
}
