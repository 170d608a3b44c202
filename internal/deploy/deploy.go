// Package deploy holds the small trust artefacts the SCBR command-line
// tools exchange out of band: the router's platform/enclave trust
// bundle (what Intel's attestation service plus the audited enclave
// measurement provide in production) and the publisher's public key
// (what clients receive with their service contract).
package deploy

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"os"

	"scbr/internal/attest"
	"scbr/internal/scrypto"
)

// TrustBundle is written by scbr-router at startup and consumed by
// scbr-publisher to verify attestation quotes and pin the enclave.
type TrustBundle struct {
	PlatformID     string `json:"platform_id"`
	AttestationKey []byte `json:"attestation_key"` // PKIX DER
	MRENCLAVE      []byte `json:"mrenclave"`
	MRSIGNER       []byte `json:"mrsigner"`
}

// NewTrustBundle assembles a bundle from a quoter and enclave identity.
func NewTrustBundle(quoter *attest.Quoter, id attest.Identity) (*TrustBundle, error) {
	der, err := x509.MarshalPKIXPublicKey(quoter.AttestationKey())
	if err != nil {
		return nil, fmt.Errorf("deploy: encoding attestation key: %w", err)
	}
	return &TrustBundle{
		PlatformID:     quoter.PlatformID(),
		AttestationKey: der,
		MRENCLAVE:      append([]byte(nil), id.MRENCLAVE[:]...),
		MRSIGNER:       append([]byte(nil), id.MRSIGNER[:]...),
	}, nil
}

// Platform parses the bundle: the platform's attestation key — PKIX
// DER, and an ECDSA P-256 key or an error — and the pinned enclave
// identity. Service and scbr-router's peer bundles both read a bundle
// through it.
func (b *TrustBundle) Platform() (*ecdsa.PublicKey, attest.Identity, error) {
	var id attest.Identity
	if len(b.MRENCLAVE) != 32 || len(b.MRSIGNER) != 32 {
		return nil, id, fmt.Errorf("deploy: trust bundle has malformed measurements")
	}
	parsed, err := x509.ParsePKIXPublicKey(b.AttestationKey)
	if err != nil {
		return nil, id, fmt.Errorf("deploy: parsing attestation key: %w", err)
	}
	key, ok := parsed.(*ecdsa.PublicKey)
	if !ok {
		return nil, id, fmt.Errorf("deploy: attestation key is %T, want ECDSA P-256", parsed)
	}
	if key.Curve != elliptic.P256() {
		return nil, id, fmt.Errorf("deploy: attestation key is on %s, want P-256", key.Curve.Params().Name)
	}
	copy(id.MRENCLAVE[:], b.MRENCLAVE)
	copy(id.MRSIGNER[:], b.MRSIGNER)
	return key, id, nil
}

// Service materialises the verification service and pinned identity.
func (b *TrustBundle) Service() (*attest.Service, attest.Identity, error) {
	key, id, err := b.Platform()
	if err != nil {
		return nil, id, err
	}
	svc := attest.NewService()
	svc.RegisterPlatform(b.PlatformID, key)
	return svc, id, nil
}

// Save writes the bundle as JSON.
func (b *TrustBundle) Save(path string) error {
	return writeJSON(path, b)
}

// LoadTrustBundle reads a bundle written by Save.
func LoadTrustBundle(path string) (*TrustBundle, error) {
	var b TrustBundle
	if err := readJSON(path, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// PublisherKey is the publisher's public key file for clients.
type PublisherKey struct {
	PubKey []byte `json:"pub_key"` // PKIX DER
}

// SavePublisherKey writes pk for distribution to clients.
func SavePublisherKey(path string, pk *ecdh.PublicKey) error {
	der, err := x509.MarshalPKIXPublicKey(pk)
	if err != nil {
		return fmt.Errorf("deploy: encoding publisher key: %w", err)
	}
	return writeJSON(path, &PublisherKey{PubKey: der})
}

// LoadPublisherKey reads a key written by SavePublisherKey. It refuses
// any key that is not X25519, such as the RSA key of a file written
// before PK became X25519.
func LoadPublisherKey(path string) (*ecdh.PublicKey, error) {
	var k PublisherKey
	if err := readJSON(path, &k); err != nil {
		return nil, err
	}
	pk, err := scrypto.ParsePublicKey(k.PubKey)
	if err != nil {
		return nil, fmt.Errorf("deploy: publisher key in %s: %w", path, err)
	}
	return pk, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("deploy: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("deploy: writing %s: %w", path, err)
	}
	return nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("deploy: reading %s: %w", path, err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("deploy: decoding %s: %w", path, err)
	}
	return nil
}
