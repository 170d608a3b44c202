// Package attest simulates SGX remote attestation: the mechanism SCBR
// uses to convince the service provider that a genuine enclave with
// the expected measurement is running on the (untrusted)
// infrastructure before provisioning it with the symmetric key SK
// (§2, "an enclave is provided with secrets ... with the help of a
// remote attestation protocol").
//
// The simulation mirrors the EPID flow structurally: the application
// enclave produces a local report addressed to the platform's quoting
// enclave; the quoting enclave verifies it and signs the body with a
// platform attestation key; a verification service (Intel's IAS in
// production) vouches for platform keys; and the service provider
// checks the quoted measurement before releasing secrets over a
// channel bound to the quote. The quoting enclave signs with an ECDSA
// P-256 attestation key, as the DCAP quoting enclave does.
package attest

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"

	"scbr/internal/scrypto"
	"scbr/internal/sgx"
)

// Errors returned by verification.
var (
	ErrUnknownPlatform = errors.New("attest: unknown platform")
	ErrBadQuote        = errors.New("attest: quote verification failed")
	ErrDebugEnclave    = errors.New("attest: debug enclave rejected")
	ErrWrongIdentity   = errors.New("attest: enclave identity mismatch")
	ErrChannelBinding  = errors.New("attest: provisioning key not bound to quote")
)

// Quote is a remotely-verifiable attestation of an enclave identity.
type Quote struct {
	PlatformID string
	Body       []byte // marshalled sgx.ReportBody
	Sig        []byte
}

// Quoter plays the role of the platform quoting enclave: it holds the
// device's ECDSA P-256 attestation key and converts local reports into
// quotes.
type Quoter struct {
	dev        *sgx.Device
	platformID string
	key        *ecdsa.PrivateKey
}

// NewQuoter provisions a quoting identity for a device.
func NewQuoter(dev *sgx.Device, platformID string) (*Quoter, error) {
	if platformID == "" {
		return nil, errors.New("attest: empty platform ID")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: generating platform key: %w", err)
	}
	return &Quoter{dev: dev, platformID: platformID, key: key}, nil
}

// PlatformID returns the quoter's platform identity.
func (q *Quoter) PlatformID() string { return q.platformID }

// AttestationKey returns the public half registered with the
// verification service.
func (q *Quoter) AttestationKey() *ecdsa.PublicKey { return &q.key.PublicKey }

// Quote verifies a local report addressed to the quoting enclave and
// signs the SHA-256 digest of its body (ASN.1 ECDSA). Reports from
// other devices fail the MAC check.
func (q *Quoter) Quote(r *sgx.Report) (*Quote, error) {
	if !q.dev.VerifyQuotableReport(r) {
		return nil, fmt.Errorf("%w: report MAC invalid for this platform", ErrBadQuote)
	}
	body := r.Body.Marshal()
	digest := sha256.Sum256(body)
	sig, err := ecdsa.SignASN1(rand.Reader, q.key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("attest: signing quote: %w", err)
	}
	return &Quote{PlatformID: q.platformID, Body: body, Sig: sig}, nil
}

// Service is the attestation verification service (IAS stand-in): it
// knows the attestation keys of genuine platforms and validates
// quotes. Safe for concurrent use.
type Service struct {
	mu        sync.RWMutex
	platforms map[string]*ecdsa.PublicKey
	// AllowDebug admits debug-mode enclaves (never in production).
	AllowDebug bool
}

// NewService returns an empty verification service.
func NewService() *Service {
	return &Service{platforms: make(map[string]*ecdsa.PublicKey)}
}

// RegisterPlatform records a genuine platform's attestation key.
func (s *Service) RegisterPlatform(id string, key *ecdsa.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.platforms[id] = key
}

// Verify checks a quote's platform signature and returns the attested
// report body.
func (s *Service) Verify(q *Quote) (*sgx.ReportBody, error) {
	if q == nil {
		return nil, ErrBadQuote
	}
	s.mu.RLock()
	key, ok := s.platforms[q.PlatformID]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlatform, q.PlatformID)
	}
	digest := sha256.Sum256(q.Body)
	if !ecdsa.VerifyASN1(key, digest[:], q.Sig) {
		return nil, ErrBadQuote
	}
	body, err := sgx.UnmarshalReportBody(q.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuote, err)
	}
	if body.Debug && !s.AllowDebug {
		return nil, ErrDebugEnclave
	}
	return body, nil
}

// Identity pins the enclave a verifier will release secrets to.
type Identity struct {
	MRENCLAVE [32]byte
	MRSIGNER  [32]byte
	// MinISVSVN rejects enclaves below this security version.
	MinISVSVN uint16
}

// ProvisioningRequest is what an enclave sends to a service provider
// to obtain secrets: its quote plus an ephemeral X25519 public key
// generated inside the enclave — the key exchange SGX remote
// attestation runs. The quote's report data binds the key hash, so the
// infrastructure cannot substitute its own key.
type ProvisioningRequest struct {
	Quote  *Quote
	PubKey []byte // PKIX-encoded X25519 public key
}

// provisionKeyLabel is the sealed-box label of provisioning blobs.
const provisionKeyLabel = "scbr/attest/provision-key/v1"

// NewProvisioningRequest runs inside the enclave: it generates an
// ephemeral X25519 key, binds the hash of its PKIX encoding into a
// report addressed to the quoting enclave, and has the quoter produce
// the quote.
func NewProvisioningRequest(e *sgx.Enclave, quoter *Quoter) (*ProvisioningRequest, *ecdh.PrivateKey, error) {
	var priv *ecdh.PrivateKey
	if err := e.Ecall(func() (err error) {
		priv, err = ecdh.X25519().GenerateKey(rand.Reader)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("attest: generating provisioning key: %w", err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(priv.PublicKey())
	if err != nil {
		return nil, nil, fmt.Errorf("attest: encoding provisioning key: %w", err)
	}
	var data sgx.ReportData
	digest := sha256.Sum256(pubDER)
	copy(data[:], digest[:])
	report, err := e.Report(sgx.QuotingTargetMR, data)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: producing report: %w", err)
	}
	quote, err := quoter.Quote(report)
	if err != nil {
		return nil, nil, err
	}
	return &ProvisioningRequest{Quote: quote, PubKey: pubDER}, priv, nil
}

// ProvisionSecret runs at the service provider: it validates the quote
// against the verification service and the pinned identity, checks the
// channel binding, and returns the secret sealed to the enclave's
// quote-bound ephemeral key (scrypto.SealTo).
func ProvisionSecret(svc *Service, id Identity, req *ProvisioningRequest, secret []byte) ([]byte, error) {
	if req == nil || req.Quote == nil {
		return nil, ErrBadQuote
	}
	body, err := svc.Verify(req.Quote)
	if err != nil {
		return nil, err
	}
	if !sgx.EqualMeasurement(body.MRENCLAVE, id.MRENCLAVE) ||
		!sgx.EqualMeasurement(body.MRSIGNER, id.MRSIGNER) {
		return nil, ErrWrongIdentity
	}
	if body.ISVSVN < id.MinISVSVN {
		return nil, fmt.Errorf("%w: ISVSVN %d below minimum %d", ErrWrongIdentity, body.ISVSVN, id.MinISVSVN)
	}
	digest := sha256.Sum256(req.PubKey)
	var bound [sha256.Size]byte
	copy(bound[:], body.Data[:sha256.Size])
	if bound != digest {
		return nil, ErrChannelBinding
	}
	pub, err := scrypto.ParsePublicKey(req.PubKey)
	if err != nil {
		return nil, fmt.Errorf("attest: provisioning key: %w", err)
	}
	return scrypto.SealTo(pub, provisionKeyLabel, secret)
}

// ReceiveSecret runs inside the enclave: it opens a provisioned secret
// with the ephemeral private key.
func ReceiveSecret(e *sgx.Enclave, priv *ecdh.PrivateKey, blob []byte) ([]byte, error) {
	var secret []byte
	if err := e.Ecall(func() (err error) {
		secret, err = scrypto.OpenSealed(priv, provisionKeyLabel, blob)
		return err
	}); err != nil {
		return nil, fmt.Errorf("attest: decrypting secret: %w", err)
	}
	return secret, nil
}
