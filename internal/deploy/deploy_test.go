package deploy

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"path/filepath"
	"strings"
	"testing"

	"scbr/internal/attest"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

func TestTrustBundleRoundTrip(t *testing.T) {
	dev, err := sgx.NewDevice([]byte("deploy-test"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "deploy-platform")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := dev.Launch([]byte("deploy image"), signer.Public(), sgx.EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	id := attest.Identity{MRENCLAVE: enclave.MRENCLAVE(), MRSIGNER: enclave.MRSIGNER()}

	bundle, err := NewTrustBundle(quoter, id)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trust.json")
	if err := bundle.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrustBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	svc, gotID, err := loaded.Service()
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("identity mismatch: %+v vs %+v", gotID, id)
	}
	// The reconstructed service verifies quotes from the original
	// platform end to end.
	req, _, err := attest.NewProvisioningRequest(enclave, quoter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attest.ProvisionSecret(svc, gotID, req, []byte("SK")); err != nil {
		t.Fatalf("provisioning through reloaded bundle failed: %v", err)
	}
}

func TestTrustBundleValidation(t *testing.T) {
	b := &TrustBundle{PlatformID: "x", AttestationKey: []byte("junk"), MRENCLAVE: make([]byte, 32), MRSIGNER: make([]byte, 32)}
	if _, _, err := b.Service(); err == nil {
		t.Fatal("junk attestation key accepted")
	}
	b2 := &TrustBundle{PlatformID: "x", MRENCLAVE: make([]byte, 5), MRSIGNER: make([]byte, 32)}
	if _, _, err := b2.Service(); err == nil {
		t.Fatal("short measurement accepted")
	}
	if _, err := LoadTrustBundle(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTrustBundleRejectsNonP256Key: the bundle's attestation key must be
// the ECDSA P-256 key quotes are signed with; an RSA key, or an ECDSA
// key on another curve, is refused by name.
func TestTrustBundleRejectsNonP256Key(t *testing.T) {
	rsaKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p384, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  any
		want string
	}{
		{&rsaKey.PublicKey, "*rsa.PublicKey, want ECDSA P-256"},
		{&p384.PublicKey, "on P-384, want P-256"},
	} {
		der, err := x509.MarshalPKIXPublicKey(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		b := &TrustBundle{PlatformID: "x", AttestationKey: der, MRENCLAVE: make([]byte, 32), MRSIGNER: make([]byte, 32)}
		if _, _, err := b.Service(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("bundle with a %T attestation key: err = %v, want %q", tc.key, err, tc.want)
		}
	}
}

func TestPublisherKeyRoundTrip(t *testing.T) {
	kp, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pub.json")
	if err := SavePublisherKey(path, kp.Public()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPublisherKey(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(kp.Public()) {
		t.Fatal("key round trip mismatch")
	}
	if _, err := LoadPublisherKey(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing key file accepted")
	}
}

// TestPublisherKeyRejectsNonX25519: a key file holding any other key —
// the RSA key of a file written before PK became X25519, or a P-256
// key — fails to load, naming the type it found.
func TestPublisherKeyRejectsNonX25519(t *testing.T) {
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
		path := filepath.Join(t.TempDir(), "pub.json")
		if err := writeJSON(path, &PublisherKey{PubKey: der}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPublisherKey(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("key file with a %T: err = %v, want %q", tc.key, err, tc.want)
		}
	}
}
