package scheme

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"scbr/internal/aspe"
	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// The aspe scheme: the paper's software-only encrypted baseline on the
// live data plane. The publisher holds the secret matrices and encodes
// subscriptions as sign-test query vectors and publications as
// encrypted points; the router stores and scans ciphertext it cannot
// open, so matching needs no enclave trust — at the matching cost
// Figure 7 quantifies. The only wire-negotiated public parameter is
// the vector dimensionality (2·d+2 for a d-attribute universe).

func init() {
	Register(&Backend{
		Name:      ASPE,
		Caps:      aspeCaps,
		Footprint: ASPEFootprint,
		NewCodec: func(opts Options) (Codec, error) {
			return newASPECodec(opts)
		},
		NewSlice: func(acc simmem.Accessor, _ *pubsub.Schema, _ core.Options) (Slice, error) {
			// The slice keeps its own value domain: ASPE blobs reference
			// vector positions, never the router's schema. Engine tuning
			// (padding, sharding) has no counterpart here.
			return &aspeSlice{store: aspe.NewStore(acc, aspe.Options{Prefilter: true})}, nil
		},
	})
}

var aspeCaps = Capabilities{
	SealedExchange:    false,
	FederationDigests: false,
	PrefixConstraints: false,
}

// aspeParams is the public parameter blob carried in the provisioning
// bundle: everything a router-side store needs. KeyID fingerprints the
// codec's secret matrices, attribute layout, and scales — a store
// holding vectors refuses re-provisioning under a different KeyID even
// at the same dimension, because the stored ciphertexts would be
// noise against the new scheme's points.
type aspeParams struct {
	Dim   int    `json:"dim"`
	KeyID string `json:"key_id"`
}

// aspeCodec is the publisher-side half: the scheme with its secret
// matrices plus a private schema fixing attribute vector positions.
// The mutex guards the scheme's internal RNG (blinding components and
// per-vector scales draw from it on every encode).
type aspeCodec struct {
	mu     sync.Mutex
	sch    *aspe.Scheme
	schema *pubsub.Schema
}

func newASPECodec(opts Options) (*aspeCodec, error) {
	if len(opts.Attrs) == 0 {
		return nil, fmt.Errorf("scheme: %s needs a fixed attribute universe (WithAttrs)", ASPE)
	}
	schema := pubsub.NewSchema()
	ids := make([]pubsub.AttrID, 0, len(opts.Attrs))
	seen := make(map[pubsub.AttrID]bool, len(opts.Attrs))
	for _, name := range opts.Attrs {
		id, err := schema.Intern(name)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("scheme: duplicate attribute %q in %s universe", name, ASPE)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	seed := opts.Seed
	if seed == 0 {
		var raw [8]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return nil, fmt.Errorf("scheme: seeding %s matrices: %w", ASPE, err)
		}
		seed = int64(binary.LittleEndian.Uint64(raw[:]))
	}
	sch, err := aspe.NewScheme(schema, ids, seed)
	if err != nil {
		return nil, err
	}
	for name, scale := range opts.Scales {
		id, ok := schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("scheme: scale for %q outside the %s universe", name, ASPE)
		}
		if err := sch.SetScale(id, scale); err != nil {
			return nil, err
		}
	}
	if len(opts.Calibration) > 0 {
		sample := make([]*pubsub.Event, 0, len(opts.Calibration))
		for _, spec := range opts.Calibration {
			ev, err := spec.Intern(schema)
			if err != nil {
				return nil, fmt.Errorf("scheme: calibration event: %w", err)
			}
			sample = append(sample, ev)
		}
		if err := sch.CalibrateScales(sample); err != nil {
			return nil, err
		}
	}
	return &aspeCodec{sch: sch, schema: schema}, nil
}

func (c *aspeCodec) Name() string { return ASPE }

func (c *aspeCodec) Capabilities() Capabilities { return aspeCaps }

func (c *aspeCodec) Params() ([]byte, error) {
	return json.Marshal(aspeParams{Dim: c.sch.Dim(), KeyID: c.sch.KeyID()})
}

func (c *aspeCodec) EncodeSubscription(spec pubsub.SubscriptionSpec) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub, err := pubsub.Normalize(c.schema, spec)
	if err != nil {
		return nil, err
	}
	es, err := c.sch.EncodeSubscription(sub)
	if err != nil {
		return nil, err
	}
	return aspe.AppendSubscription(nil, es)
}

func (c *aspeCodec) EncodeEvent(spec pubsub.EventSpec) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev, err := spec.Intern(c.schema)
	if err != nil {
		return nil, err
	}
	ep, err := c.sch.EncodePublication(ev)
	if err != nil {
		return nil, err
	}
	return aspe.AppendPublication(nil, ep)
}

// aspeSlice adapts the router-side ASPE store to the Slice interface.
// The broker serialises all entries per partition, so the scratch
// buffers and keyID need no locking.
type aspeSlice struct {
	store *aspe.Store
	keyID string

	// Match scratch, reused across calls: decoded publications (their
	// point storage is recycled).
	eps []*aspe.EncodedPublication
}

func (s *aspeSlice) Configure(params []byte) error {
	var p aspeParams
	if err := json.Unmarshal(params, &p); err != nil {
		return fmt.Errorf("scheme: decoding %s parameters: %w", ASPE, err)
	}
	if s.store.Len() > 0 && p.KeyID != s.keyID {
		// Same failure class as a dimension change: every stored vector
		// was encrypted under the old matrices and would sign-test as
		// noise against points encrypted under the new ones.
		return fmt.Errorf("scheme: cannot re-key a store holding %d subscriptions (key %.8s → %.8s)",
			s.store.Len(), s.keyID, p.KeyID)
	}
	if err := s.store.Configure(p.Dim); err != nil {
		return err
	}
	s.keyID = p.KeyID
	return nil
}

func (s *aspeSlice) RegisterEncodedAssigned(enc []byte, clientRef uint32, id uint64) error {
	es, err := aspe.DecodeSubscription(enc)
	if err != nil {
		return err
	}
	return s.store.RegisterAssigned(es, clientRef, id)
}

func (s *aspeSlice) Unregister(id uint64) error { return s.store.Unregister(id) }

// MatchRecords decodes the whole batch into reused scratch and hands
// it to the store's chunked scan: one walk of the database per 64
// items, every ciphertext vector read once per walk however many items
// are still live on its subscription, with point norms, tolerances and
// the transposed Bloom prefilter set up once per walk. The store's
// records are the slice's: nothing is copied per match.
func (s *aspeSlice) MatchRecords(encs [][]byte, out []core.Record) ([]core.Record, error) {
	for len(s.eps) < len(encs) {
		s.eps = append(s.eps, new(aspe.EncodedPublication))
	}
	eps := s.eps[:len(encs)]
	for i, ep := range eps {
		if err := aspe.DecodePublicationInto(encs[i], ep); err != nil {
			// Dropped: no store has dimension 0, so the scan skips
			// the item.
			ep.Dim = 0
		}
	}
	return s.store.MatchRecords(eps, out)
}

// Stats reports the arena footprint as Bytes: the peak live set of
// vectors, since the store reuses unregistered slots.
func (s *aspeSlice) Stats() SliceStats {
	return SliceStats{Subscriptions: s.store.Len(), Bytes: s.store.Bytes()}
}

func (s *aspeSlice) Accessor() simmem.Accessor { return s.store.Accessor() }
