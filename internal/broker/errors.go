package broker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"scbr/internal/attest"
	"scbr/internal/core"
)

// Sentinel errors of the broker protocol. Every exported failure path
// of the Router, Publisher, and Client wraps one of these (or one of
// the attest/core sentinels), so callers select on failure classes
// with errors.Is instead of matching message strings. The wire
// protocol carries a machine-readable code alongside the human
// message, so the taxonomy survives a network hop: a revoked client
// sees errors.Is(err, ErrRevokedClient) even though the refusal was
// produced by the remote publisher.
var (
	// ErrClosed reports an operation on a closed router, client, or
	// subscription handle.
	ErrClosed = errors.New("broker: closed")
	// ErrNotProvisioned reports router operations before a publisher
	// has attested the enclave and provisioned SK.
	ErrNotProvisioned = errors.New("broker: router not provisioned")
	// ErrNotConnected reports client/publisher operations before the
	// corresponding connection was established.
	ErrNotConnected = errors.New("broker: not connected")
	// ErrAttestationFailed wraps any failure of the remote attestation
	// handshake (bad quote, wrong identity, debug enclave, broken
	// channel binding). The underlying attest sentinel stays in the
	// chain, so errors.Is(err, attest.ErrWrongIdentity) still works.
	ErrAttestationFailed = errors.New("broker: attestation failed")
	// ErrNotOwner reports an attempt to remove a subscription owned by
	// a different client.
	ErrNotOwner = errors.New("broker: subscription not owned by client")
	// ErrSchemeMismatch reports a matching-scheme disagreement: a frame
	// (or a sealed state snapshot) whose blobs are encoded under a
	// different scheme than the router runs, or a provisioning attempt
	// announcing one. Matching a blob against the wrong scheme's store
	// would misinterpret the encoding, so mismatches fail fast.
	ErrSchemeMismatch = errors.New("broker: matching-scheme mismatch")
)

// ErrUnknownSubscription re-exports the engine's sentinel: operations
// naming a subscription ID the router does not hold.
var ErrUnknownSubscription = core.ErrUnknownSubscription

// Wire error codes. sendErr stamps the outgoing error message with the
// code of the first matching sentinel; errOf rebuilds an error that
// wraps the same sentinel on the receiving side.
const (
	codeClosed              = "closed"
	codeNotProvisioned      = "not-provisioned"
	codeNotConnected        = "not-connected"
	codeAttestationFailed   = "attestation-failed"
	codeNotOwner            = "not-owner"
	codeUnknownSubscription = "unknown-subscription"
	codeUnknownClient       = "unknown-client"
	codeRevokedClient       = "revoked"
	codeSchemeMismatch      = "scheme-mismatch"
)

// wireSentinels orders the code↔sentinel mapping; more specific
// classes come first so e.g. a revoked client maps to "revoked" and
// not a broader class it might also wrap.
var wireSentinels = []struct {
	code string
	err  error
}{
	{codeRevokedClient, ErrRevokedClient},
	{codeSchemeMismatch, ErrSchemeMismatch},
	{codeUnknownClient, ErrUnknownClient},
	{codeUnknownSubscription, ErrUnknownSubscription},
	{codeNotOwner, ErrNotOwner},
	{codeNotProvisioned, ErrNotProvisioned},
	{codeNotConnected, ErrNotConnected},
	{codeAttestationFailed, ErrAttestationFailed},
	{codeClosed, ErrClosed},
}

// codeFor maps an error to its wire code ("" when no sentinel of the
// taxonomy is in its chain).
func codeFor(err error) string {
	for _, s := range wireSentinels {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	if errors.Is(err, attest.ErrWrongIdentity) || errors.Is(err, attest.ErrBadQuote) ||
		errors.Is(err, attest.ErrUnknownPlatform) || errors.Is(err, attest.ErrDebugEnclave) ||
		errors.Is(err, attest.ErrChannelBinding) {
		return codeAttestationFailed
	}
	return ""
}

// sentinelFor maps a wire code back to its sentinel (nil for unknown
// or absent codes, e.g. from an older peer).
func sentinelFor(code string) error {
	for _, s := range wireSentinels {
		if s.code == code {
			return s.err
		}
	}
	return nil
}

// ctxGuard arms a watcher that severs conn if ctx is cancelled before
// release is called, which unblocks any Send/Recv in flight. It also
// maps a ctx deadline onto the connection so a blocking read respects
// it. Cancelling a request this way deliberately tears the connection
// down: on a multiplexed stream there is no safe way to abandon a
// half-finished exchange and keep the framing aligned.
func ctxGuard(ctx context.Context, conn net.Conn) (release func()) {
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	stop := make(chan struct{})
	done := ctx.Done()
	if done != nil {
		go func() {
			select {
			case <-done:
				_ = conn.Close()
			case <-stop:
			}
		}()
	}
	return func() {
		close(stop)
		_ = conn.SetDeadline(time.Time{})
	}
}

// ctxErr folds a context cancellation into an operation error: when
// the guard severed the connection, the I/O error that surfaced is the
// uninteresting symptom and ctx.Err() is the cause.
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("%w (%v)", ctx.Err(), err)
	}
	return err
}
