package attest

import (
	"bytes"
	"errors"
	"testing"

	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

type fixture struct {
	dev     *sgx.Device
	quoter  *Quoter
	svc     *Service
	signer  *scrypto.KeyPair
	enclave *sgx.Enclave
	id      Identity
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dev, err := sgx.NewDevice([]byte("attest-dev"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := NewQuoter(dev, "platform-1")
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService()
	svc.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dev.Launch([]byte("scbr router image"), signer.Public(), sgx.EnclaveConfig{ISVSVN: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		dev:     dev,
		quoter:  quoter,
		svc:     svc,
		signer:  signer,
		enclave: e,
		id: Identity{
			MRENCLAVE: e.MRENCLAVE(),
			MRSIGNER:  e.MRSIGNER(),
			MinISVSVN: 1,
		},
	}
}

func TestProvisioningHappyPath(t *testing.T) {
	f := newFixture(t)
	req, kp, err := NewProvisioningRequest(f.enclave, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("the symmetric key SK")
	blob, err := ProvisionSecret(f.svc, f.id, req, secret)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, secret) {
		t.Fatal("secret visible in provisioning blob")
	}
	got, err := ReceiveSecret(f.enclave, kp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("provisioned secret mismatch")
	}
}

// TestProvisionedSecretBoundToRequestKey: a provisioning blob opens only
// under the ephemeral key of the request it answers, and an altered or
// truncated blob fails inside the enclave.
func TestProvisionedSecretBoundToRequestKey(t *testing.T) {
	f := newFixture(t)
	req, priv, err := NewProvisioningRequest(f.enclave, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	_, other, err := NewProvisioningRequest(f.enclave, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ProvisionSecret(f.svc, f.id, req, []byte("SK"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReceiveSecret(f.enclave, other, blob); err == nil {
		t.Fatal("blob opened under another request's key")
	}
	flip := func(at int) []byte {
		b := append([]byte(nil), blob...)
		b[at] ^= 1
		return b
	}
	for name, bad := range map[string][]byte{
		"empty":             nil,
		"exchange key only": blob[:32],
		"exchange key":      flip(0),
		"ciphertext":        flip(len(blob) - 1),
	} {
		if _, err := ReceiveSecret(f.enclave, priv, bad); err == nil {
			t.Fatalf("%s: altered blob opened", name)
		}
	}
	if got, err := ReceiveSecret(f.enclave, priv, blob); err != nil || string(got) != "SK" {
		t.Fatalf("ReceiveSecret = %q, %v", got, err)
	}
}

func TestWrongMeasurementRejected(t *testing.T) {
	f := newFixture(t)
	// A different (possibly malicious) enclave on the same platform.
	other, err := f.dev.Launch([]byte("evil router image"), f.signer.Public(), sgx.EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := NewProvisioningRequest(other, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProvisionSecret(f.svc, f.id, req, []byte("SK")); !errors.Is(err, ErrWrongIdentity) {
		t.Fatalf("wrong measurement accepted: %v", err)
	}
}

func TestWrongSignerRejected(t *testing.T) {
	f := newFixture(t)
	otherSigner, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same code, different vendor signature.
	other, err := f.dev.Launch([]byte("scbr router image"), otherSigner.Public(), sgx.EnclaveConfig{ISVSVN: 3})
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := NewProvisioningRequest(other, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProvisionSecret(f.svc, f.id, req, []byte("SK")); !errors.Is(err, ErrWrongIdentity) {
		t.Fatalf("wrong signer accepted: %v", err)
	}
}

func TestStaleISVSVNRejected(t *testing.T) {
	f := newFixture(t)
	stale, err := f.dev.Launch([]byte("scbr router image"), f.signer.Public(), sgx.EnclaveConfig{ISVSVN: 0})
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := NewProvisioningRequest(stale, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	id := f.id
	id.MRENCLAVE = stale.MRENCLAVE() // measurement differs via ISVSVN; pin it
	if _, err := ProvisionSecret(f.svc, id, req, []byte("SK")); !errors.Is(err, ErrWrongIdentity) {
		t.Fatalf("stale ISVSVN accepted: %v", err)
	}
}

func TestDebugEnclaveRejected(t *testing.T) {
	f := newFixture(t)
	dbg, err := f.dev.Launch([]byte("scbr router image"), f.signer.Public(), sgx.EnclaveConfig{Debug: true, ISVSVN: 3})
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := NewProvisioningRequest(dbg, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity{MRENCLAVE: dbg.MRENCLAVE(), MRSIGNER: dbg.MRSIGNER()}
	if _, err := ProvisionSecret(f.svc, id, req, []byte("SK")); !errors.Is(err, ErrDebugEnclave) {
		t.Fatalf("debug enclave accepted: %v", err)
	}
	f.svc.AllowDebug = true
	if _, err := ProvisionSecret(f.svc, id, req, []byte("SK")); err != nil {
		t.Fatalf("debug enclave rejected with AllowDebug: %v", err)
	}
}

func TestSubstitutedKeyRejected(t *testing.T) {
	f := newFixture(t)
	req, _, err := NewProvisioningRequest(f.enclave, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	// The untrusted infrastructure swaps in a key of its choosing.
	swapped, _, err := NewProvisioningRequest(f.enclave, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	swapped.PubKey = req.PubKey // key from another session
	if _, err := ProvisionSecret(f.svc, f.id, swapped, []byte("SK")); !errors.Is(err, ErrChannelBinding) {
		t.Fatalf("substituted key accepted: %v", err)
	}
}

// TestForgedQuoteRejected: a quote whose body or ECDSA signature was
// altered, or whose signature is empty, fails verification.
func TestForgedQuoteRejected(t *testing.T) {
	f := newFixture(t)
	req, _, err := NewProvisioningRequest(f.enclave, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.Verify(req.Quote); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
	for name, forge := range map[string]func(q *Quote){
		"body":      func(q *Quote) { q.Body[0] ^= 1 },
		"signature": func(q *Quote) { q.Sig[len(q.Sig)-1] ^= 1 },
		"no sig":    func(q *Quote) { q.Sig = nil },
	} {
		q := *req.Quote
		q.Body, q.Sig = bytes.Clone(q.Body), bytes.Clone(q.Sig)
		forge(&q)
		if _, err := f.svc.Verify(&q); !errors.Is(err, ErrBadQuote) {
			t.Fatalf("%s: tampered quote verified: %v", name, err)
		}
	}
}

// TestWrongAttestationKeyRejected: a quote signed by one platform's key
// fails at a service that holds another key under that platform's ID.
func TestWrongAttestationKeyRejected(t *testing.T) {
	f := newFixture(t)
	impostor, err := NewQuoter(f.dev, f.quoter.PlatformID())
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := NewProvisioningRequest(f.enclave, impostor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.Verify(req.Quote); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("quote under another platform key verified: %v", err)
	}
	if _, err := ProvisionSecret(f.svc, f.id, req, []byte("SK")); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("provisioned against a quote under another platform key: %v", err)
	}
}

func TestUnknownPlatformRejected(t *testing.T) {
	f := newFixture(t)
	req, _, err := NewProvisioningRequest(f.enclave, f.quoter)
	if err != nil {
		t.Fatal(err)
	}
	req.Quote.PlatformID = "rogue"
	if _, err := f.svc.Verify(req.Quote); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("unknown platform accepted: %v", err)
	}
	if _, err := f.svc.Verify(nil); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("nil quote accepted: %v", err)
	}
}

func TestCrossDeviceReportRejected(t *testing.T) {
	f := newFixture(t)
	dev2, err := sgx.NewDevice([]byte("other-dev"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := dev2.Launch([]byte("scbr router image"), f.signer.Public(), sgx.EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := e2.Report(sgx.QuotingTargetMR, sgx.ReportData{})
	if err != nil {
		t.Fatal(err)
	}
	// f's quoter belongs to a different device; the report MAC must
	// not verify there.
	if _, err := f.quoter.Quote(report); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("cross-device report quoted: %v", err)
	}
}

func TestQuoterValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewQuoter(f.dev, ""); err == nil {
		t.Fatal("empty platform ID accepted")
	}
	if _, err := ProvisionSecret(f.svc, f.id, nil, []byte("s")); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("nil request accepted: %v", err)
	}
}
