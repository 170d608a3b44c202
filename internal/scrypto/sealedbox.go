package scrypto

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/x509"
	"fmt"
)

// The sealed box is the tree's one public-key encryption: attested
// provisioning, the client→publisher subscription ({s}PK in the paper)
// and the group key sent back to a client all use it, each under its
// own label. A blob is the sender's ephemeral X25519 public key followed
// by the message under AES-256-GCM, keyed by DeriveKey(ECDH, label).
// The associated data is the ephemeral key followed by the recipient's
// raw key: X25519 ignores the top bit of a public key, so without the
// ephemeral key in the AAD a blob with that bit flipped would still
// open.

// x25519KeySize is the length of a raw X25519 public key.
const x25519KeySize = 32

// sealedOverhead is the length of a sealed box around an empty
// message: ephemeral key, GCM nonce and GCM tag.
const sealedOverhead = x25519KeySize + gcmNonceSize + tagSize

// SealTo encrypts msg for the holder of peer's private half under the
// given label. Only OpenSealed with the same label and that private key
// opens the result; any altered byte fails it.
func SealTo(peer *ecdh.PublicKey, label string, msg []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("scrypto: generating ephemeral key: %w", err)
	}
	key, err := boxKey(eph, peer, label)
	if err != nil {
		return nil, err
	}
	ephPub := eph.PublicKey().Bytes()
	sealed, err := SealGCM(key, msg, boxAAD(ephPub, peer))
	if err != nil {
		return nil, err
	}
	return append(ephPub, sealed...), nil
}

// OpenSealed reverses SealTo: it completes the key exchange with the
// ephemeral key at the front of blob and opens the rest. A blob too
// short to be a sealed box is ErrMalformed; any other failure is
// ErrAuthentication.
func OpenSealed(priv *ecdh.PrivateKey, label string, blob []byte) ([]byte, error) {
	if len(blob) < sealedOverhead {
		return nil, ErrMalformed
	}
	ephPub := blob[:x25519KeySize]
	eph, err := ecdh.X25519().NewPublicKey(ephPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuthentication, err)
	}
	key, err := boxKey(priv, eph, label)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuthentication, err)
	}
	return OpenGCM(key, blob[x25519KeySize:], boxAAD(ephPub, priv.PublicKey()))
}

// boxAAD is a sealed box's associated data: the ephemeral key, then the
// recipient's.
func boxAAD(eph []byte, recipient *ecdh.PublicKey) []byte {
	return append(append(make([]byte, 0, 2*x25519KeySize), eph...), recipient.Bytes()...)
}

// boxKey derives the AES-256-GCM key both ends of a sealed box compute,
// each from its own private key and the other's public key. It fails
// for a low-order peer key, whose shared secret is all zeros.
func boxKey(priv *ecdh.PrivateKey, peer *ecdh.PublicKey, label string) ([]byte, error) {
	shared, err := priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("scrypto: key exchange: %w", err)
	}
	return DeriveKey(shared, label, 32), nil
}

// ParsePublicKey parses a PKIX-encoded public key and refuses, by type,
// any key that is not X25519.
func ParsePublicKey(der []byte) (*ecdh.PublicKey, error) {
	parsed, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("scrypto: parsing public key: %w", err)
	}
	pub, ok := parsed.(*ecdh.PublicKey)
	if !ok || pub.Curve() != ecdh.X25519() {
		return nil, fmt.Errorf("scrypto: public key is %T, want X25519", parsed)
	}
	return pub, nil
}
