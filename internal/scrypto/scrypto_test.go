package scrypto

import (
	"bytes"
	"crypto/ecdh"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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
	if _, err := Open(k, make([]byte, envelopeOverhead-1)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short envelope: got %v, want ErrMalformed", err)
	}
}

// TestEnvelopeOverhead: an envelope is its plaintext plus a 16-byte
// nonce and a 16-byte tag, whatever the plaintext's length.
func TestEnvelopeOverhead(t *testing.T) {
	k := testKey(t)
	s, err := NewSealer(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 64, 1024} {
		p := make([]byte, size)
		env, err := Seal(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(env) != size+32 {
			t.Fatalf("Seal(%d B) = %d B, want %d", size, len(env), size+32)
		}
		if env, err = s.Seal(p); err != nil || len(env) != size+32 {
			t.Fatalf("Sealer.Seal(%d B) = %d B (err %v), want %d", size, len(env), err, size+32)
		}
	}
}

// TestSealerConcurrent: one Sealer and one Opener shared by 8
// goroutines round-trip every envelope (run it under -race).
func TestSealerConcurrent(t *testing.T) {
	k := testKey(t)
	s, err := NewSealer(k)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOpener(k)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				msg := []byte(fmt.Sprintf("goroutine %d message %d", g, i))
				env, err := s.Seal(msg)
				if err != nil {
					errs <- err
					return
				}
				if buf, err = o.OpenAppend(env, buf[:0]); err != nil || !bytes.Equal(buf, msg) {
					errs <- fmt.Errorf("goroutine %d message %d: %q, %v", g, i, buf, err)
					return
				}
				if got, err := Open(k, env); err != nil || !bytes.Equal(got, msg) {
					errs <- fmt.Errorf("goroutine %d message %d, one-shot Open: %q, %v", g, i, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzOpenEnvelope: Open never panics. An envelope opens to what was
// sealed; one flipped bit anywhere in it, or any other alteration
// (xor mask, truncation, appended bytes), fails with ErrAuthentication
// or ErrMalformed; and the fuzzed message itself, read as an envelope,
// fails the same way.
func FuzzOpenEnvelope(f *testing.F) {
	k, err := NewSymmetricKey(nil)
	if err != nil {
		f.Fatal(err)
	}
	s, err := NewSealer(k)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds at the layout's edges: an empty plaintext (the 32-byte
	// minimum, cut one short), a bit in the nonce, the ciphertext and
	// the tag, and raw messages of exactly the overhead.
	f.Add([]byte{}, uint(0), []byte{}, 0, []byte{})
	f.Add([]byte{}, uint(8*envelopeOverhead-1), []byte{}, envelopeOverhead-1, []byte{})
	f.Add([]byte("header"), uint(8*nonceSize), []byte{0x80}, 0, []byte{0})
	f.Add(bytes.Repeat([]byte{7}, envelopeOverhead), uint(8*(nonceSize+envelopeOverhead)), []byte{1, 2, 3}, 40, []byte{})
	f.Add(bytes.Repeat([]byte{0}, 64), uint(3), []byte{}, envelopeOverhead, []byte{})
	f.Fuzz(func(t *testing.T, msg []byte, flip uint, mask []byte, cut int, tail []byte) {
		if _, err := Open(k, msg); !errors.Is(err, ErrAuthentication) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("raw %d bytes: err = %v, want ErrAuthentication or ErrMalformed", len(msg), err)
		}
		env, err := s.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Open(k, env); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("unaltered envelope: %q, %v", got, err)
		}
		bit := flip % uint(8*len(env))
		flipped := bytes.Clone(env)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := Open(k, flipped); !errors.Is(err, ErrAuthentication) {
			t.Fatalf("bit %d flipped: err = %v, want ErrAuthentication", bit, err)
		}
		mutated := bytes.Clone(env)
		for i, m := range mask {
			mutated[i%len(mutated)] ^= m
		}
		if cut > 0 && cut < len(mutated) {
			mutated = mutated[:cut]
		}
		mutated = append(mutated, tail...)
		got, err := Open(k, mutated)
		if bytes.Equal(mutated, env) {
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("envelope unaltered by the mutation: %q, %v", got, err)
			}
			return
		}
		if !errors.Is(err, ErrAuthentication) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("altered envelope: err = %v, want ErrAuthentication or ErrMalformed", err)
		}
	})
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

// The two sealed-box tests keep the names of the RSA-OAEP hybrid
// (EncryptPK/DecryptPK) that SealTo/OpenSealed replaced: they guard the
// same public-key leg.

// TestRSAHybridRoundTrip: SealTo/OpenSealed round-trips at every size,
// and a blob is exactly sealedOverhead longer than its message.
func TestRSAHybridRoundTrip(t *testing.T) {
	kp, err := NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	const label = "scbr/test/sealed-box"
	for _, size := range []int{0, 1, 100, 5000} {
		msg := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(msg)
		blob, err := SealTo(kp.Public(), label, msg)
		if err != nil {
			t.Fatalf("SealTo(%d B): %v", size, err)
		}
		if len(blob) != size+sealedOverhead {
			t.Fatalf("SealTo(%d B) = %d B, want %d", size, len(blob), size+sealedOverhead)
		}
		got, err := OpenSealed(kp.Private, label, blob)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("OpenSealed(%d B): round trip mismatch, err %v", size, err)
		}
	}
}

// TestRSAHybridRejectsCorruptWrap: OpenSealed refuses a wrong label, a
// wrong recipient, a flipped bit anywhere in the blob (ErrAuthentication)
// and a truncated blob (ErrMalformed). A low-order key is refused as a
// recipient and as a blob's ephemeral key.
func TestRSAHybridRejectsCorruptWrap(t *testing.T) {
	kp, err := NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	const label = "scbr/test/sealed-box"
	for _, size := range []int{1, 100, 5000} {
		msg := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(msg)
		blob, err := SealTo(kp.Public(), label, msg)
		if err != nil {
			t.Fatalf("SealTo(%d B): %v", size, err)
		}
		for _, tc := range []struct {
			name string
			priv *KeyPair
			lbl  string
			blob []byte
			want error
		}{
			{"wrong label", kp, label + "x", blob, ErrAuthentication},
			{"wrong recipient", other, label, blob, ErrAuthentication},
			{"truncated to the overhead", kp, label, blob[:sealedOverhead-1], ErrMalformed},
			{"empty", kp, label, nil, ErrMalformed},
		} {
			if _, err := OpenSealed(tc.priv.Private, tc.lbl, tc.blob); !errors.Is(err, tc.want) {
				t.Fatalf("%d B, %s: err = %v, want %v", size, tc.name, err, tc.want)
			}
		}
		for i := range blob {
			for _, bit := range []byte{0x01, 0x80} {
				mutated := bytes.Clone(blob)
				mutated[i] ^= bit
				if _, err := OpenSealed(kp.Private, label, mutated); !errors.Is(err, ErrAuthentication) {
					t.Fatalf("%d B: bit %#x of byte %d flipped: err = %v, want ErrAuthentication", size, bit, i, err)
				}
			}
		}
	}

	// The all-zero u-coordinate is a low-order point: its shared secret
	// is all zeros whatever the private key.
	lowOrder, err := ecdh.X25519().NewPublicKey(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SealTo(lowOrder, label, []byte("s")); err == nil {
		t.Fatal("SealTo a low-order key succeeded")
	}
	forged := append(lowOrder.Bytes(), make([]byte, sealedOverhead)...)
	if _, err := OpenSealed(kp.Private, label, forged); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("blob with a low-order ephemeral key: err = %v, want ErrAuthentication", err)
	}
}

// FuzzOpenSealed: OpenSealed never panics, and accepts a blob only if
// it is byte for byte the one SealTo produced. The fuzzer mutates the
// blob (xor mask, truncation, appended bytes) of a seeded message.
func FuzzOpenSealed(f *testing.F) {
	kp, err := NewKeyPair(nil)
	if err != nil {
		f.Fatal(err)
	}
	const label = "scbr/test/fuzz"
	f.Add([]byte("subscription"), []byte{}, 0, []byte{})
	f.Add([]byte{}, []byte{0x80}, 31, []byte{})
	f.Add([]byte("group key"), []byte{1, 2, 3}, 40, []byte{0})
	f.Fuzz(func(t *testing.T, msg, mask []byte, cut int, tail []byte) {
		blob, err := SealTo(kp.Public(), label, msg)
		if err != nil {
			t.Fatal(err)
		}
		mutated := bytes.Clone(blob)
		for i, m := range mask {
			mutated[i%len(mutated)] ^= m
		}
		if cut > 0 && cut < len(mutated) {
			mutated = mutated[:cut]
		}
		mutated = append(mutated, tail...)
		got, err := OpenSealed(kp.Private, label, mutated)
		if bytes.Equal(mutated, blob) {
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("unaltered blob: %q, %v", got, err)
			}
			return
		}
		if err == nil {
			t.Fatalf("altered blob opened: %x", mutated)
		}
		if !errors.Is(err, ErrAuthentication) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("altered blob: err = %v, want ErrAuthentication or ErrMalformed", err)
		}
	})
}

// BenchmarkSealedBox prices the client→publisher subscription leg: one
// X25519 exchange plus AES-GCM, per 200-byte subscription. No other
// harness times it (benchmark/ registers through RegisterBulk).
func BenchmarkSealedBox(b *testing.B) {
	kp, err := NewKeyPair(nil)
	if err != nil {
		b.Fatal(err)
	}
	const label = "scbr/bench/sealed-box"
	sub := make([]byte, 200)
	blob, err := SealTo(kp.Public(), label, sub)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SealTo(kp.Public(), label, sub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OpenSealed(kp.Private, label, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnvelope prices one envelope the way the publisher and the
// router pay for it: Sealer.Seal then Opener.OpenAppend into a reused
// buffer, each with its key setup done once, at a header-sized and a
// payload-sized plaintext.
func BenchmarkEnvelope(b *testing.B) {
	k, err := NewSymmetricKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSealer(k)
	if err != nil {
		b.Fatal(err)
	}
	o, err := NewOpener(k)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p := make([]byte, size)
			var buf []byte
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				env, err := s.Seal(p)
				if err != nil {
					b.Fatal(err)
				}
				if buf, err = o.OpenAppend(env, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
