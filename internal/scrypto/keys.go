// Package scrypto provides the cryptographic substrate used throughout
// SCBR: one AES-GCM seal and open behind every message envelope (SK
// headers, group-key payloads, federation frames), enclave page
// eviction and state persistence, X25519 key pairs with one sealed box
// (SealTo / OpenSealed) for every public-key encryption — attested
// provisioning, the client→publisher subscription and the group-key
// wrap — and an HMAC-SHA256 key-derivation helper.
//
// The paper uses Crypto++ AES-CTR and RSA outside the enclave and the
// Intel SDK AES-CTR implementation inside; this package authenticates
// the CTR stream with GCM's GHASH tag and replaces RSA with X25519 and
// an authenticated sealed box, on top of the Go standard library.
package scrypto

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// Key sizes in bytes.
const (
	// SymmetricKeySize is the AES-128 key size used for SK, matching the
	// paper's AES-CTR configuration.
	SymmetricKeySize = 16
	// MACKeySize is the size of SK's HMAC-SHA256 sub-key. Envelopes do
	// not use it (GCM authenticates under Enc); it feeds DeriveKey and,
	// through it, the registration tag.
	MACKeySize = 32
)

var (
	// ErrAuthentication indicates a MAC, AEAD tag or sealed box that did not verify.
	ErrAuthentication = errors.New("scrypto: authentication failed")
	// ErrMalformed indicates a ciphertext too short or structurally invalid.
	ErrMalformed = errors.New("scrypto: malformed ciphertext")
)

// SymmetricKey is the shared key SK between a publisher and the enclave.
// It carries independent encryption and MAC sub-keys: Enc keys the
// envelopes, MAC the key derivations.
type SymmetricKey struct {
	Enc [SymmetricKeySize]byte
	MAC [MACKeySize]byte
}

// NewSymmetricKey draws a fresh symmetric key from the given source, or
// crypto/rand when src is nil.
func NewSymmetricKey(src io.Reader) (*SymmetricKey, error) {
	if src == nil {
		src = rand.Reader
	}
	var k SymmetricKey
	if _, err := io.ReadFull(src, k.Enc[:]); err != nil {
		return nil, fmt.Errorf("scrypto: reading encryption key: %w", err)
	}
	if _, err := io.ReadFull(src, k.MAC[:]); err != nil {
		return nil, fmt.Errorf("scrypto: reading MAC key: %w", err)
	}
	return &k, nil
}

// Bytes serialises the key for transport inside attestation provisioning
// messages. The layout is Enc || MAC.
func (k *SymmetricKey) Bytes() []byte {
	out := make([]byte, 0, SymmetricKeySize+MACKeySize)
	out = append(out, k.Enc[:]...)
	out = append(out, k.MAC[:]...)
	return out
}

// SymmetricKeyFromBytes parses the Enc || MAC layout produced by Bytes.
func SymmetricKeyFromBytes(b []byte) (*SymmetricKey, error) {
	if len(b) != SymmetricKeySize+MACKeySize {
		return nil, fmt.Errorf("scrypto: symmetric key must be %d bytes, got %d",
			SymmetricKeySize+MACKeySize, len(b))
	}
	var k SymmetricKey
	copy(k.Enc[:], b[:SymmetricKeySize])
	copy(k.MAC[:], b[SymmetricKeySize:])
	return &k, nil
}

// Equal reports whether two keys are identical, in constant time.
func (k *SymmetricKey) Equal(other *SymmetricKey) bool {
	if other == nil {
		return false
	}
	return hmac.Equal(k.Bytes(), other.Bytes())
}

// KeyPair is an X25519 key pair: a publisher's PK / PK⁻¹ in the paper,
// a client's response key, or an enclave image signer.
type KeyPair struct {
	Private *ecdh.PrivateKey
}

// NewKeyPair generates a fresh X25519 key pair.
func NewKeyPair(src io.Reader) (*KeyPair, error) {
	if src == nil {
		src = rand.Reader
	}
	priv, err := ecdh.X25519().GenerateKey(src)
	if err != nil {
		return nil, fmt.Errorf("scrypto: generating X25519 key: %w", err)
	}
	return &KeyPair{Private: priv}, nil
}

// Public returns the public half: what SealTo encrypts to.
func (kp *KeyPair) Public() *ecdh.PublicKey { return kp.Private.PublicKey() }

// DeriveKey derives a labelled sub-key from root material using
// HMAC-SHA256 as an HKDF-expand-style PRF. It is used for group-key
// epochs and for enclave sealing-key derivation.
func DeriveKey(root []byte, label string, n int) []byte {
	out := make([]byte, 0, n)
	var counter byte
	var prev []byte
	for len(out) < n {
		counter++
		mac := hmac.New(sha256.New, root)
		mac.Write(prev)
		mac.Write([]byte(label))
		mac.Write([]byte{counter})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:n]
}
