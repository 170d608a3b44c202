package scrypto

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testKey(t *testing.T) *SymmetricKey {
	t.Helper()
	k, err := NewSymmetricKey(nil)
	if err != nil {
		t.Fatalf("NewSymmetricKey: %v", err)
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := testKey(t)
	for _, size := range []int{0, 1, 15, 16, 17, 255, 4096, 70000} {
		plaintext := make([]byte, size)
		for i := range plaintext {
			plaintext[i] = byte(i * 31)
		}
		env, err := Seal(k, plaintext)
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", size, err)
		}
		got, err := Open(k, env)
		if err != nil {
			t.Fatalf("Open(%d bytes): %v", size, err)
		}
		if !bytes.Equal(got, plaintext) {
			t.Fatalf("round trip mismatch at size %d", size)
		}
	}
}

func TestSealProducesDistinctCiphertexts(t *testing.T) {
	k := testKey(t)
	msg := []byte("same message")
	a, err := Seal(k, msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Seal(k, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two Seal calls produced identical envelopes; nonce reuse")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k := testKey(t)
	env, err := Seal(k, []byte("attack at dawn"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(env); i += 7 {
		mutated := bytes.Clone(env)
		mutated[i] ^= 0x40
		if _, err := Open(k, mutated); !errors.Is(err, ErrAuthentication) {
			t.Fatalf("Open accepted envelope tampered at byte %d: %v", i, err)
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, k2 := testKey(t), testKey(t)
	env, err := Seal(k1, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(k2, env); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("Open with wrong key: got %v, want ErrAuthentication", err)
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	k := testKey(t)
	if _, err := Open(k, make([]byte, envelopeMinSize-1)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short envelope: got %v, want ErrMalformed", err)
	}
}

func TestSealOpenQuick(t *testing.T) {
	k := testKey(t)
	f := func(plaintext []byte) bool {
		env, err := Seal(k, plaintext)
		if err != nil {
			return false
		}
		got, err := Open(k, env)
		return err == nil && bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricKeySerialisation(t *testing.T) {
	k := testKey(t)
	parsed, err := SymmetricKeyFromBytes(k.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(parsed) {
		t.Fatal("serialised key does not round-trip")
	}
	if _, err := SymmetricKeyFromBytes(make([]byte, 10)); err == nil {
		t.Fatal("SymmetricKeyFromBytes accepted short input")
	}
	if k.Equal(nil) {
		t.Fatal("Equal(nil) must be false")
	}
}

func TestGCMRoundTripAndAAD(t *testing.T) {
	key := DeriveKey([]byte("root"), "gcm-test", 16)
	plaintext := []byte("page contents")
	aad := []byte("version=7")
	ct, err := SealGCM(key, plaintext, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenGCM(key, ct, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatal("GCM round trip mismatch")
	}
	if _, err := OpenGCM(key, ct, []byte("version=8")); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("replayed AAD accepted: %v", err)
	}
	mutated := bytes.Clone(ct)
	mutated[len(mutated)-1] ^= 1
	if _, err := OpenGCM(key, mutated, aad); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("tampered GCM ciphertext accepted: %v", err)
	}
	if _, err := OpenGCM(key, ct[:4], aad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated GCM ciphertext: got %v, want ErrMalformed", err)
	}
}

func TestRSAHybridRoundTrip(t *testing.T) {
	kp, err := NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 100, 5000} {
		plaintext := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(plaintext)
		ct, err := EncryptPK(kp.Public(), plaintext)
		if err != nil {
			t.Fatalf("EncryptPK(%d): %v", size, err)
		}
		got, err := DecryptPK(kp, ct)
		if err != nil {
			t.Fatalf("DecryptPK(%d): %v", size, err)
		}
		if !bytes.Equal(got, plaintext) {
			t.Fatalf("RSA hybrid round trip mismatch at size %d", size)
		}
	}
}

func TestRSAHybridRejectsCorruptWrap(t *testing.T) {
	kp, err := NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := EncryptPK(kp.Public(), []byte("subscription"))
	if err != nil {
		t.Fatal(err)
	}
	ct[5] ^= 0xFF // inside the wrapped session key
	if _, err := DecryptPK(kp, ct); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("corrupt key wrap accepted: %v", err)
	}
	if _, err := DecryptPK(kp, []byte{0}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated hybrid ciphertext: got %v, want ErrMalformed", err)
	}
}

// BenchmarkRSAHybrid prices the client→publisher subscription leg: one
// RSA key wrap plus the envelope, per 200-byte subscription. No other
// harness times it (benchmark/ registers through RegisterBulk).
func BenchmarkRSAHybrid(b *testing.B) {
	kp, err := NewKeyPair(nil)
	if err != nil {
		b.Fatal(err)
	}
	sub := make([]byte, 200)
	ct, err := EncryptPK(kp.Public(), sub)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EncryptPK(kp.Public(), sub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecryptPK(kp, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestDeriveKeyProperties(t *testing.T) {
	a := DeriveKey([]byte("root"), "label-a", 48)
	a2 := DeriveKey([]byte("root"), "label-a", 48)
	b := DeriveKey([]byte("root"), "label-b", 48)
	c := DeriveKey([]byte("other"), "label-a", 48)
	if !bytes.Equal(a, a2) {
		t.Fatal("DeriveKey is not deterministic")
	}
	if bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Fatal("DeriveKey collisions across labels/roots")
	}
	if len(DeriveKey([]byte("r"), "l", 100)) != 100 {
		t.Fatal("DeriveKey wrong output length")
	}
}

func TestGroupKeyRotationOnRevoke(t *testing.T) {
	g, err := NewGroupKeyManager(nil)
	if err != nil {
		t.Fatal(err)
	}
	k1, e1 := g.Join("alice")
	k2, e2 := g.Join("bob")
	if e1 != e2 || !k1.Equal(k2) {
		t.Fatal("join must not rotate the key")
	}
	if got := g.Members(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Members = %v", got)
	}
	epoch, err := g.Revoke("alice")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != e1+1 {
		t.Fatalf("Revoke epoch = %d, want %d", epoch, e1+1)
	}
	k3, _ := g.Join("bob") // already a member: reads the current key
	if k3.Equal(k1) {
		t.Fatal("revocation did not rotate the group key")
	}
	// The payload sealer rotates with the key and names its epoch.
	sealer, sealEpoch := g.Sealer()
	env, err := sealer.Seal([]byte("after revocation"))
	if err != nil || sealEpoch != epoch {
		t.Fatalf("Sealer: epoch %d (want %d), err %v", sealEpoch, epoch, err)
	}
	if _, err := Open(k1, env); err == nil {
		t.Fatal("revoked key opens a payload sealed after the rotation")
	}
	if got, err := Open(k3, env); err != nil || string(got) != "after revocation" {
		t.Fatalf("current key cannot open the sealer's envelope: %q, %v", got, err)
	}
	if g.IsMember("alice") || !g.IsMember("bob") {
		t.Fatal("membership wrong after revocation")
	}
	// Revoking a non-member keeps the epoch stable.
	epoch2, err := g.Revoke("mallory")
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 != epoch {
		t.Fatal("revoking non-member rotated the key")
	}
}
