package scrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sync"
)

// Envelope layout: nonce(16) || ciphertext || tag(32).
//
// The paper encrypts headers and subscriptions with AES-CTR. Bare CTR is
// malleable, and SCBR explicitly requires that the infrastructure cannot
// tamper with messages, so every envelope carries an encrypt-then-MAC
// HMAC-SHA256 tag over nonce||ciphertext.
const (
	nonceSize       = aes.BlockSize
	tagSize         = sha256.Size
	envelopeMinSize = nonceSize + tagSize
)

// Seal encrypts plaintext under k using AES-CTR with a random nonce and
// appends an HMAC-SHA256 tag. The result is safe to hand to the
// untrusted infrastructure. It is the one-shot form of Sealer.Seal:
// the per-key setup is paid on every call.
func Seal(k *SymmetricKey, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(k.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating cipher: %w", err)
	}
	return seal(block, hmac.New(sha256.New, k.MAC[:]), plaintext)
}

// seal builds one envelope with a ready block cipher and keyed MAC.
func seal(block cipher.Block, mac hash.Hash, plaintext []byte) ([]byte, error) {
	out := make([]byte, nonceSize+len(plaintext), envelopeMinSize+len(plaintext))
	if _, err := io.ReadFull(rand.Reader, out[:nonceSize]); err != nil {
		return nil, fmt.Errorf("scrypto: reading nonce: %w", err)
	}
	cipher.NewCTR(block, out[:nonceSize]).XORKeyStream(out[nonceSize:], plaintext)
	mac.Write(out)
	return mac.Sum(out), nil
}

// Sealer produces Seal envelopes under one key with the per-key setup
// — the AES key schedule and the HMAC pad blocks — paid once instead
// of per envelope: Opener's sealing twin, for a publisher that seals a
// header and a payload per event. Unlike Opener it is safe for
// concurrent use (publishers publish from several goroutines): the
// AES block is stateless and the keyed MACs are pooled.
type Sealer struct {
	block cipher.Block
	macs  sync.Pool // hash.Hash keyed with k.MAC
}

// NewSealer builds a Sealer for k.
func NewSealer(k *SymmetricKey) (*Sealer, error) {
	block, err := aes.NewCipher(k.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating cipher: %w", err)
	}
	macKey := k.MAC
	s := &Sealer{block: block}
	s.macs.New = func() any { return hmac.New(sha256.New, macKey[:]) }
	return s, nil
}

// Seal encrypts plaintext with a fresh random nonce and appends the
// HMAC-SHA256 tag; the envelope is a fresh allocation.
func (s *Sealer) Seal(plaintext []byte) ([]byte, error) {
	mac := s.macs.Get().(hash.Hash)
	mac.Reset()
	out, err := seal(s.block, mac, plaintext)
	s.macs.Put(mac)
	return out, err
}

// Open authenticates and decrypts an envelope produced by Seal.
func Open(k *SymmetricKey, envelope []byte) ([]byte, error) {
	o, err := NewOpener(k)
	if err != nil {
		return nil, err
	}
	return o.OpenAppend(envelope, nil)
}

// Opener authenticates and decrypts Seal envelopes under one key with
// the per-key setup — the AES key schedule and the HMAC pad blocks —
// paid once instead of per envelope. The router's batch matching path
// opens every header of a publish-batch on every slice, so the setup
// would otherwise dominate small-header traffic. Not safe for
// concurrent use; callers keep one per serialised context (the broker:
// one per partition, under the partition lock).
type Opener struct {
	block cipher.Block
	mac   hash.Hash
	sum   []byte
}

// NewOpener builds an Opener for k.
func NewOpener(k *SymmetricKey) (*Opener, error) {
	block, err := aes.NewCipher(k.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating cipher: %w", err)
	}
	return &Opener{block: block, mac: hmac.New(sha256.New, k.MAC[:])}, nil
}

// OpenAppend authenticates envelope and appends its plaintext to buf,
// reusing buf's capacity — Open with caller-owned storage.
func (o *Opener) OpenAppend(envelope, buf []byte) ([]byte, error) {
	if len(envelope) < envelopeMinSize {
		return nil, ErrMalformed
	}
	body, tag := envelope[:len(envelope)-tagSize], envelope[len(envelope)-tagSize:]
	o.mac.Reset()
	o.mac.Write(body)
	o.sum = o.mac.Sum(o.sum[:0])
	if !hmac.Equal(o.sum, tag) {
		return nil, ErrAuthentication
	}
	n := len(body) - nonceSize
	start := len(buf)
	if cap(buf)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:start+n]
	cipher.NewCTR(o.block, body[:nonceSize]).XORKeyStream(buf[start:], body[nonceSize:])
	return buf, nil
}

// SealGCM encrypts-and-authenticates data under a raw 16- or 32-byte key
// with AES-GCM and the given additional authenticated data. It is used by
// the enclave simulator for EPC page eviction and sealed storage, where
// the version counter rides in the AAD to provide replay protection.
func SealGCM(key, plaintext, aad []byte) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("scrypto: reading nonce: %w", err)
	}
	return aead.Seal(nonce, nonce, plaintext, aad), nil
}

// OpenGCM reverses SealGCM; it fails with ErrAuthentication if the
// ciphertext or the AAD was altered.
func OpenGCM(key, ciphertext, aad []byte) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(ciphertext) < aead.NonceSize() {
		return nil, ErrMalformed
	}
	nonce, body := ciphertext[:aead.NonceSize()], ciphertext[aead.NonceSize():]
	plaintext, err := aead.Open(nil, nonce, body, aad)
	if err != nil {
		return nil, ErrAuthentication
	}
	return plaintext, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating GCM: %w", err)
	}
	return aead, nil
}
