package scrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
)

// Envelope layout: nonce(16) || ciphertext || tag(16), AES-GCM under
// SymmetricKey.Enc.
//
// The paper encrypts headers and subscriptions with AES-CTR. Bare CTR is
// malleable, and SCBR explicitly requires that the infrastructure cannot
// tamper with messages, so every envelope is authenticated: GCM is
// AES-CTR with a GHASH tag over the ciphertext, one pass of the cipher
// the paper names.
//
// Nonce discipline. SK is never rotated, so every envelope a publisher
// seals in SK's lifetime shares one key, and nonces are random, not
// counted: a 16-byte random nonce is GHASHed to GCM's initial counter
// block J0. Two envelopes fail only if their counter blocks overlap,
// which Niwa, Ohashi, Minematsu and Iwata ("GCM Security Bounds
// Reconsidered", FSE 2015) bound by about q²·ℓ/2¹²⁸ for q envelopes of
// at most ℓ blocks: ≈2⁻⁴² at q = 2⁴⁰ envelopes of ℓ ≤ 2⁶ blocks.
const (
	nonceSize        = aes.BlockSize
	tagSize          = 16
	envelopeOverhead = nonceSize + tagSize

	// gcmNonceSize is SealGCM's standard 12-byte nonce: the sealed box
	// and the enclave's sealed blobs keep their layout.
	gcmNonceSize = 12
)

// newAEAD builds the envelope AEAD for k: AES-GCM with a 16-byte nonce.
func newAEAD(k *SymmetricKey) (cipher.AEAD, error) {
	return newGCM(k.Enc[:], nonceSize)
}

// newGCM builds AES-GCM under a raw key with the given nonce size.
func newGCM(key []byte, nonceSize int) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating cipher: %w", err)
	}
	aead, err := cipher.NewGCMWithNonceSize(block, nonceSize)
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating GCM: %w", err)
	}
	return aead, nil
}

// seal is every seal in the package: a random nonce followed by
// aead's ciphertext and tag over plaintext and aad, in one fresh
// allocation.
func seal(aead cipher.AEAD, plaintext, aad []byte) ([]byte, error) {
	n := aead.NonceSize()
	out := make([]byte, n, n+len(plaintext)+aead.Overhead())
	if _, err := io.ReadFull(rand.Reader, out); err != nil {
		return nil, fmt.Errorf("scrypto: reading nonce: %w", err)
	}
	return aead.Seal(out, out, plaintext, aad), nil
}

// open is every open in the package: it authenticates sealed (a seal
// output) and aad under aead and appends the plaintext to buf. A
// sealed too short to hold a nonce and a tag is ErrMalformed; any
// other failure is ErrAuthentication.
func open(aead cipher.AEAD, sealed, aad, buf []byte) ([]byte, error) {
	n := aead.NonceSize()
	if len(sealed) < n+tagSize {
		return nil, ErrMalformed
	}
	out, err := aead.Open(buf, sealed[:n], sealed[n:], aad)
	if err != nil {
		return nil, ErrAuthentication
	}
	return out, nil
}

// Seal encrypts and authenticates plaintext under k with a random
// nonce. The result is safe to hand to the untrusted infrastructure. It
// is the one-shot form of Sealer.Seal: the key schedule is paid on
// every call.
func Seal(k *SymmetricKey, plaintext []byte) ([]byte, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	return seal(aead, plaintext, nil)
}

// Sealer produces Seal envelopes under one key with the key schedule
// paid once instead of per envelope: Opener's sealing twin, for a
// publisher that seals a header and a payload per event. It is safe
// for concurrent use (publishers publish from several goroutines): the
// AEAD is read-only once built.
type Sealer struct {
	aead cipher.AEAD
}

// NewSealer builds a Sealer for k.
func NewSealer(k *SymmetricKey) (*Sealer, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead}, nil
}

// Seal encrypts plaintext with a fresh random nonce and appends the
// tag; the envelope is a fresh allocation.
func (s *Sealer) Seal(plaintext []byte) ([]byte, error) {
	return seal(s.aead, plaintext, nil)
}

// Open authenticates and decrypts an envelope produced by Seal.
func Open(k *SymmetricKey, envelope []byte) ([]byte, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	return open(aead, envelope, nil, nil)
}

// Opener authenticates and decrypts Seal envelopes under one key with
// the key schedule paid once instead of per envelope. The router's
// batch matching path opens every header of a publish-batch on every
// slice, so the setup would otherwise dominate small-header traffic.
// Like Sealer it holds only the read-only AEAD, so it is safe for
// concurrent use.
type Opener struct {
	aead cipher.AEAD
}

// NewOpener builds an Opener for k.
func NewOpener(k *SymmetricKey) (*Opener, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	return &Opener{aead: aead}, nil
}

// OpenAppend authenticates envelope and appends its plaintext to buf,
// reusing buf's capacity — Open with caller-owned storage. buf must
// not overlap envelope.
func (o *Opener) OpenAppend(envelope, buf []byte) ([]byte, error) {
	return open(o.aead, envelope, nil, buf)
}

// SealGCM encrypts-and-authenticates data under a raw 16- or 32-byte key
// with AES-GCM (a 12-byte nonce) and the given additional authenticated
// data. It is used by the enclave simulator for EPC page eviction and
// sealed storage, where the version counter rides in the AAD to provide
// replay protection, and by the sealed box.
func SealGCM(key, plaintext, aad []byte) ([]byte, error) {
	aead, err := newGCM(key, gcmNonceSize)
	if err != nil {
		return nil, err
	}
	return seal(aead, plaintext, aad)
}

// OpenGCM reverses SealGCM; it fails with ErrAuthentication if the
// ciphertext or the AAD was altered.
func OpenGCM(key, ciphertext, aad []byte) ([]byte, error) {
	aead, err := newGCM(key, gcmNonceSize)
	if err != nil {
		return nil, err
	}
	return open(aead, ciphertext, aad, nil)
}
