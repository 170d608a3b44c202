package scbr

import (
	"scbr/internal/attest"
	"scbr/internal/broker"
	"scbr/internal/core"
)

// The v1 error taxonomy. Every failure the deployment roles can
// surface wraps one of these sentinels, so applications branch with
// errors.Is instead of matching message text. The broker protocol
// carries the error class on the wire, so the taxonomy holds across
// the network: a revoked client matching errors.Is(err, ErrRevoked)
// works even though the refusal came from the remote publisher.
var (
	// ErrClosed reports an operation on a closed Router, Client, or
	// Subscription.
	ErrClosed = broker.ErrClosed
	// ErrNotProvisioned reports router operations (registration,
	// publication, sealing) before a publisher attested the enclave
	// and provisioned the symmetric key SK.
	ErrNotProvisioned = broker.ErrNotProvisioned
	// ErrNotConnected reports client or publisher operations before
	// the corresponding connection was established.
	ErrNotConnected = broker.ErrNotConnected
	// ErrAttestationFailed wraps every failure of the remote
	// attestation handshake. The specific cause (ErrWrongIdentity,
	// ErrBadQuote, ErrUnknownPlatform, ...) stays in the chain.
	ErrAttestationFailed = broker.ErrAttestationFailed
	// ErrRevoked reports an excluded client: subscription admission,
	// group key refreshes, and therefore payload decryption all fail
	// with it after Publisher.Revoke.
	ErrRevoked = broker.ErrRevokedClient
	// ErrUnknownClient reports operations naming a client the
	// publisher's admission registry has never seen.
	ErrUnknownClient = broker.ErrUnknownClient
	// ErrNotOwner reports an attempt to remove another client's
	// subscription.
	ErrNotOwner = broker.ErrNotOwner
	// ErrUnknownSubscription reports operations naming a subscription
	// ID the engine does not hold.
	ErrUnknownSubscription = core.ErrUnknownSubscription
	// ErrStateRollback reports a sealed router snapshot that is not
	// the most recently sealed one (§2 rollback protection).
	ErrStateRollback = broker.ErrStateRollback
	// ErrStateVersion reports a sealed router snapshot written in an
	// older state format, whose logged envelopes this router cannot
	// open; it is refused before any registration is replayed.
	ErrStateVersion = broker.ErrStateVersion
	// ErrSchemeMismatch reports a matching-scheme disagreement: a
	// publisher or client encoded under one scheme talking to a router
	// running another (WithScheme), or a sealed snapshot restored into
	// a router configured with a different scheme. Carried across the
	// wire, so errors.Is works on the rejected side.
	ErrSchemeMismatch = broker.ErrSchemeMismatch

	// Attestation causes, for callers that need to distinguish them
	// under ErrAttestationFailed.
	ErrWrongIdentity   = attest.ErrWrongIdentity
	ErrBadQuote        = attest.ErrBadQuote
	ErrUnknownPlatform = attest.ErrUnknownPlatform
	ErrDebugEnclave    = attest.ErrDebugEnclave
)
