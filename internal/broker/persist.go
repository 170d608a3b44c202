package broker

import (
	"encoding/json"
	"errors"
	"fmt"

	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/streamhub"
)

// Sealed-state persistence: §2 of the paper describes how an enclave
// restarts without a fresh remote attestation by sealing its secrets
// and state to disk under the enclave-specific seal key, with a
// platform monotonic counter preventing the untrusted host from
// serving a stale (rolled-back) snapshot.
//
// The router seals (a) the provisioned secrets and (b) its
// registration log — the scheme-encoded (SK-sealed, for sealed-exchange
// schemes) subscriptions exactly as the publisher submitted them.
// Restore replays the log through the ingest live registrations
// take, reproducing the subscription IDs clients hold:
// each ID carries its shard, so every subscription lands back on the
// slice the sealed placement table gives that shard. The frame's
// registration tag is not kept: it was checked when the frame arrived,
// and a replayed entry is authenticated by the seal — MRENCLAVE-bound
// and counter-bound, so the untrusted host can neither alter nor
// inject nor roll back an entry without failing the unseal. The log is
// unordered (removal back-fills), which is fine — replay assigns
// explicit IDs, so log order is immaterial.
//
// Sealing happens in the attestation slice (partition 0); all slices
// share one measured identity, so the blob binds to the fleet's code.

// stateCounter names the router's rollback-protection counter.
const stateCounter = "scbr-router-state"

// ErrStateRollback indicates the supplied snapshot is not the most
// recently sealed one.
var ErrStateRollback = errors.New("broker: sealed state is stale (rollback detected)")

// ErrStateVersion indicates a snapshot sealed in another state format:
// its logged {s}SK envelopes are in a layout this router cannot open.
var ErrStateVersion = errors.New("broker: sealed state format is not this router's")

// stateVersion is the sealed-state format. Version 1 logs AES-GCM
// envelopes (nonce ‖ ciphertext ‖ 16-byte tag); snapshots without a
// version logged AES-CTR + HMAC-SHA256 envelopes, which no longer
// open, so Restore refuses them whole instead of failing per entry.
const stateVersion = 1

// logEntry is one accepted registration, stored ciphertext-at-rest.
type logEntry struct {
	SubID    uint64 `json:"sub_id"`
	ClientID string `json:"client_id"`
	Blob     []byte `json:"blob"` // {s}SK
}

// routerState is the sealed snapshot. Snapshots sealed before
// registration frames were tagged also carry a "verify_key" field,
// which decoding ignores.
type routerState struct {
	Version int    `json:"version"`
	SK      []byte `json:"sk"`
	// Scheme is the matching scheme the logged registrations are
	// encoded under, with its provisioned public parameters. Restore
	// fails fast with ErrSchemeMismatch when the restoring router runs
	// a different scheme — replaying the log would misinterpret every
	// stored encoding.
	Scheme       string     `json:"scheme,omitempty"`
	SchemeParams []byte     `json:"scheme_params,omitempty"`
	NextRef      uint32     `json:"next_ref"`
	RefNames     []string   `json:"ref_names"`
	Log          []logEntry `json:"log"`
	// Shards/Slices/Placement snapshot the movable placement map (the
	// committed shard→slice table) at seal time, so a restored router
	// replays each subscription onto the slice its shard lived on —
	// including placements produced by online repartitioning.
	Shards    int   `json:"shards,omitempty"`
	Slices    int   `json:"slices,omitempty"`
	Placement []int `json:"placement,omitempty"`
	// Cursors are the per-client delivery cursors at seal time, so a
	// restored router keeps stamping where the old one stopped and a
	// client's resume cursor stays meaningful across the restart. The
	// replay rings are not sealed — deliveries matched before the
	// restart are gone, which a resuming listener observes as its
	// reported gap.
	Cursors map[string]uint64 `json:"cursors,omitempty"`
}

// SealState snapshots the router's trusted state, bound to a fresh
// monotonic counter value. The returned blob is safe to store on
// untrusted disk; only the latest blob will restore.
func (r *Router) SealState() ([]byte, error) {
	r.keyMu.RLock()
	sk, schemeParams := r.sk, r.schemeParams
	r.keyMu.RUnlock()
	if sk == nil {
		return nil, fmt.Errorf("%w: nothing to seal", ErrNotProvisioned)
	}
	// stateMu excludes in-flight register/remove two-steps, so the
	// snapshot never captures an engine/log divergence; the seal ecall
	// below runs outside it, off the mutators' path.
	r.stateMu.Lock()
	r.ctlMu.RLock()
	pmSnap := r.pm.Snapshot()
	state := routerState{
		Version:      stateVersion,
		SK:           sk.Bytes(),
		Scheme:       r.backend.Name,
		SchemeParams: append([]byte(nil), schemeParams...),
		NextRef:      uint32(len(r.refName)),
		RefNames:     append([]string(nil), r.refName...),
		Log:          append(make([]logEntry, 0, len(r.regLog)), r.regLog...),
		Cursors:      r.delivery.cursors(),
		Shards:       pmSnap.Shards,
		Slices:       pmSnap.Slices,
		Placement:    pmSnap.Table,
	}
	r.ctlMu.RUnlock()
	r.stateMu.Unlock()
	raw, err := json.Marshal(&state)
	if err != nil {
		return nil, fmt.Errorf("broker: encoding state: %w", err)
	}
	counter := r.dev.IncrementCounter(stateCounter)
	p0 := r.p0
	var blob []byte
	p0.mu.Lock()
	err = p0.enclave.Ecall(func() error {
		var sealErr error
		blob, sealErr = p0.enclave.Seal(sgx.SealToMRENCLAVE, raw, counterAAD(counter))
		return sealErr
	})
	p0.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("broker: sealing state: %w", err)
	}
	return blob, nil
}

// RestoreState rehydrates a router from a sealed snapshot: secrets are
// unsealed inside the enclave, the counter binding is checked against
// the platform counter, and the registration log is replayed —
// decrypted and indexed, trusting the seal for authenticity — onto the
// slices the sealed placement table gives the logged IDs' shards. The
// router must be freshly constructed (no provisioning, no
// registrations) and must have been built with the shard and partition
// counts that sealed the snapshot — and with the same per-slice EPC
// share, since the share enters the measured identity the blob is
// sealed to (restoring a fleet resized by Repartition means scaling
// EPCBytes with the partition count).
func (r *Router) RestoreState(blob []byte) error {
	r.keyMu.RLock()
	provisioned := r.sk != nil
	r.keyMu.RUnlock()
	r.ctlMu.RLock()
	populated := len(r.regLog) > 0
	r.ctlMu.RUnlock()
	if provisioned || populated {
		return errors.New("broker: restore requires a fresh router")
	}
	counter := r.dev.ReadCounter(stateCounter)
	p0 := r.p0
	var raw []byte
	p0.mu.Lock()
	err := p0.enclave.Ecall(func() error {
		var unsealErr error
		raw, unsealErr = p0.enclave.Unseal(blob, counterAAD(counter))
		return unsealErr
	})
	p0.mu.Unlock()
	if err != nil {
		// Distinguishing rollback from corruption is impossible from
		// the MAC alone; both surface as a rollback-or-corrupt failure.
		return fmt.Errorf("%w: %v", ErrStateRollback, err)
	}
	var state routerState
	if err := json.Unmarshal(raw, &state); err != nil {
		return fmt.Errorf("broker: decoding state: %w", err)
	}
	if state.Version != stateVersion {
		return fmt.Errorf("%w: sealed at version %d, router reads %d", ErrStateVersion, state.Version, stateVersion)
	}
	// Fail fast on a scheme disagreement before touching any slice:
	// the sealed log's encodings are only meaningful to the scheme
	// that produced them (an empty sealed ID is a pre-scheme snapshot,
	// i.e. the default scheme).
	if got := scheme.Canonical(state.Scheme); got != r.backend.Name {
		return fmt.Errorf("%w: sealed state is encoded under %q, router runs %q", ErrSchemeMismatch, got, r.backend.Name)
	}
	sk, err := scrypto.SymmetricKeyFromBytes(state.SK)
	if err != nil {
		return fmt.Errorf("broker: decoding sealed SK: %w", err)
	}
	if err := r.configureSlices(state.SchemeParams); err != nil {
		return fmt.Errorf("broker: restoring scheme parameters: %w", err)
	}
	// Reinstate the sealed shard→slice table before replaying, so every
	// subscription lands on the slice its shard occupied at seal time —
	// including placements shaped by online resizes.
	if state.Shards != r.pm.Shards() {
		return fmt.Errorf("broker: sealed state uses %d placement shards, router has %d (restore with the sealing shard count)", state.Shards, r.pm.Shards())
	}
	if state.Slices != len(r.parts) {
		return fmt.Errorf("broker: sealed placement covers %d slices, router has %d (restore with the sealing partition count)", state.Slices, len(r.parts))
	}
	if err := r.pm.Install(state.Placement, state.Slices); err != nil {
		return fmt.Errorf("broker: %w", err)
	}
	r.keyMu.Lock()
	r.sk = sk
	r.schemeParams = append([]byte(nil), state.SchemeParams...)
	r.keyMu.Unlock()
	r.ctlMu.Lock()
	for i, name := range state.RefNames {
		r.clientRef[name] = uint32(i)
	}
	r.refName = append(r.refName, state.RefNames...)
	r.ctlMu.Unlock()
	r.delivery.seed(state.Cursors)

	if err := r.replayLog(sk, state.Log); err != nil {
		return err
	}
	r.fedAddLocal(state.Log)
	return nil
}

// replayLog re-indexes the logged registrations under their original
// IDs, on the slices the placement map assigns their shards, through
// the ingest live registrations take: one enclave entry per slice, the
// slices beside each other, all or nothing.
func (r *Router) replayLog(sk *scrypto.SymmetricKey, log []logEntry) error {
	items := make([]regItem, len(log))
	for i, ent := range log {
		shard := streamhub.ShardOf(ent.SubID)
		if shard >= r.pm.Shards() {
			return fmt.Errorf("broker: replaying subscription %d: subscription names shard %d, but the placement map has %d (restore with the sealing shard count)", ent.SubID, shard, r.pm.Shards())
		}
		items[i] = regItem{logEntry: ent, shard: shard}
	}
	if failed, err := r.ingest(sk, items); err != nil {
		return fmt.Errorf("broker: replaying subscription %d: %w", items[failed].SubID, err)
	}
	r.ctlMu.Lock()
	for _, ent := range log {
		r.logRegistration(ent)
	}
	r.ctlMu.Unlock()
	return nil
}

func counterAAD(counter uint64) []byte {
	aad := make([]byte, 8)
	for i := 0; i < 8; i++ {
		aad[i] = byte(counter >> (8 * i))
	}
	return aad
}
