// The attested link handshake. Router A (the dialer) and router B
// (the acceptor) mutually prove they run genuine, pinned SCBR enclaves
// and agree on a per-link symmetric key, reusing the provisioning
// machinery of internal/attest:
//
//	A → B  PEER_HELLO:   A's quote + an ephemeral public key generated
//	                     inside A's enclave, hash-bound into the quote
//	                     (exactly a provisioning request).
//	B → A  PEER_WELCOME: B verifies A's quote against the attestation
//	                     service and the pinned identities, generates a
//	                     link secret inside its enclave, encrypts it to
//	                     A's quoted key, and returns its own quote whose
//	                     report data binds the encrypted secret — so a
//	                     man in the middle can neither read the secret
//	                     (it is encrypted to an attested enclave key)
//	                     nor substitute its own (the substitution breaks
//	                     B's quote binding).
//
// Both sides derive the link key from the secret with the labelled
// KDF. Everything after the handshake — digests and forwarded
// publications — travels sealed under that key: the operator of the
// network between two routers learns nothing about subscriptions or
// interests.

package federation

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"fmt"

	"scbr/internal/attest"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
)

// linkSecretLen is the entropy both link sub-keys derive from.
const linkSecretLen = 32

// linkKeyLabel namespaces the KDF so a link secret can never collide
// with group-key or sealing derivations.
const linkKeyLabel = "scbr/federation/link-key/v1"

// Hello is the dialer's half of the handshake (PEER_HELLO payload).
type Hello struct {
	RouterID string        `json:"router_id"`
	Quote    *attest.Quote `json:"quote"`
	PubKey   []byte        `json:"pub_key"` // PKIX X25519, hash-bound into the quote
}

// Welcome is the acceptor's half (PEER_WELCOME payload).
type Welcome struct {
	RouterID string        `json:"router_id"`
	Quote    *attest.Quote `json:"quote"`  // report data binds SHA-256(Secret)
	Secret   []byte        `json:"secret"` // link secret, encrypted to the hello's key
}

// NewHello runs on the dialing router: generate the quote-bound
// ephemeral key inside the enclave and assemble the hello. The
// returned private key must be kept for CompleteHandshake.
func NewHello(routerID string, e *sgx.Enclave, quoter *attest.Quoter) (*Hello, *ecdh.PrivateKey, error) {
	req, ephemeral, err := attest.NewProvisioningRequest(e, quoter)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: building hello: %w", err)
	}
	return &Hello{RouterID: routerID, Quote: req.Quote, PubKey: req.PubKey}, ephemeral, nil
}

// AcceptHello runs on the accepting router: verify the dialer's quote
// against the attestation service and the pinned identities, mint a
// link secret inside the enclave, and return the welcome plus the
// derived link key.
func AcceptHello(h *Hello, svc *attest.Service, identities []attest.Identity,
	selfID string, e *sgx.Enclave, quoter *attest.Quoter) (*Welcome, *scrypto.SymmetricKey, error) {
	if h == nil || h.Quote == nil {
		return nil, nil, fmt.Errorf("%w: empty hello", ErrPeerRejected)
	}
	secret := make([]byte, linkSecretLen)
	if err := e.Ecall(func() error {
		_, err := rand.Read(secret)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("federation: minting link secret: %w", err)
	}
	// ProvisionSecret performs the full verification — service
	// signature, pinned measurement, debug rejection, channel binding —
	// and encrypts the secret to the hello's quoted key. Accept the
	// first pinned identity the quote satisfies.
	req := &attest.ProvisioningRequest{Quote: h.Quote, PubKey: h.PubKey}
	var sealed []byte
	err := fmt.Errorf("%w: no pinned identities", ErrPeerRejected)
	for _, id := range identities {
		sealed, err = attest.ProvisionSecret(svc, id, req, secret)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrPeerRejected, err)
	}
	// Bind our quote to the encrypted secret so it cannot be swapped
	// in flight.
	var data sgx.ReportData
	digest := sha256.Sum256(sealed)
	copy(data[:], digest[:])
	report, err := e.Report(sgx.QuotingTargetMR, data)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: producing welcome report: %w", err)
	}
	quote, err := quoter.Quote(report)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: quoting welcome: %w", err)
	}
	key, err := LinkKey(secret)
	if err != nil {
		return nil, nil, err
	}
	return &Welcome{RouterID: selfID, Quote: quote, Secret: sealed}, key, nil
}

// CompleteHandshake runs back on the dialing router: verify the
// acceptor's quote and its binding to the encrypted secret, decrypt
// the secret inside the enclave, and derive the link key.
func CompleteHandshake(w *Welcome, svc *attest.Service, identities []attest.Identity,
	e *sgx.Enclave, ephemeral *ecdh.PrivateKey) (*scrypto.SymmetricKey, error) {
	if w == nil || w.Quote == nil {
		return nil, fmt.Errorf("%w: empty welcome", ErrPeerRejected)
	}
	body, err := svc.Verify(w.Quote)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrPeerRejected, err)
	}
	matched := false
	for _, id := range identities {
		if sgx.EqualMeasurement(body.MRENCLAVE, id.MRENCLAVE) &&
			sgx.EqualMeasurement(body.MRSIGNER, id.MRSIGNER) &&
			body.ISVSVN >= id.MinISVSVN {
			matched = true
			break
		}
	}
	if !matched {
		return nil, fmt.Errorf("%w: %w", ErrPeerRejected, attest.ErrWrongIdentity)
	}
	digest := sha256.Sum256(w.Secret)
	var bound [sha256.Size]byte
	copy(bound[:], body.Data[:sha256.Size])
	if bound != digest {
		return nil, fmt.Errorf("%w: %w", ErrPeerRejected, attest.ErrChannelBinding)
	}
	secret, err := attest.ReceiveSecret(e, ephemeral, w.Secret)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPeerRejected, err)
	}
	return LinkKey(secret)
}

// LinkKey derives the link's symmetric key from the exchanged secret.
func LinkKey(secret []byte) (*scrypto.SymmetricKey, error) {
	if len(secret) != linkSecretLen {
		return nil, fmt.Errorf("%w: link secret is %d bytes, want %d", ErrPeerRejected, len(secret), linkSecretLen)
	}
	raw := scrypto.DeriveKey(secret, linkKeyLabel, scrypto.SymmetricKeySize+scrypto.MACKeySize)
	return scrypto.SymmetricKeyFromBytes(raw)
}
