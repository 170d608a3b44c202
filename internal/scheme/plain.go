package scheme

import (
	"fmt"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// The sgx-plain scheme: today's SCBR path. Subscriptions and headers
// travel as the compact plaintext encodings of internal/pubsub, sealed
// under SK by the broker (SealedExchange); the router opens them
// inside the enclave and matches with the containment engine.

func init() {
	Register(&Backend{
		Name: Plain,
		Caps: Capabilities{
			SealedExchange:    true,
			FederationDigests: true,
			PrefixConstraints: true,
		},
		Footprint: PlainFootprint,
		NewCodec:  func(Options) (Codec, error) { return plainCodec{}, nil },
		NewSlice: func(acc simmem.Accessor, schema *pubsub.Schema, opts core.Options) (Slice, error) {
			engine, err := core.NewEngine(acc, schema, opts)
			if err != nil {
				return nil, err
			}
			return NewPlainSlice(engine, schema), nil
		},
	})
}

// plainCodec validates and encodes with the pubsub wire codecs; the
// broker layers SK sealing on top (the scheme's SealedExchange flag).
type plainCodec struct{}

func (plainCodec) Name() string { return Plain }

func (plainCodec) Capabilities() Capabilities {
	return Capabilities{SealedExchange: true, FederationDigests: true, PrefixConstraints: true}
}

func (plainCodec) Params() ([]byte, error) { return nil, nil }

func (plainCodec) EncodeSubscription(spec pubsub.SubscriptionSpec) ([]byte, error) {
	// Validate before encoding: the publisher must not relay junk to
	// the enclave. Normalisation against a throwaway schema exercises
	// the full predicate validation path.
	if _, err := pubsub.Normalize(pubsub.NewSchema(), spec); err != nil {
		return nil, err
	}
	return pubsub.EncodeSubscriptionSpec(spec)
}

func (plainCodec) EncodeEvent(spec pubsub.EventSpec) ([]byte, error) {
	return pubsub.EncodeEventSpec(spec)
}

// PlainSlice adapts one containment engine to the Slice interface —
// the sgx-plain backend's store, and the adapter any engine-backed hub
// uses for the scheme-agnostic surface.
type PlainSlice struct {
	engine *core.Engine
	schema *pubsub.Schema
	// events and evs are the match calls' decode scratch (the broker
	// serialises slice entries per partition, like aspeSlice's scratch):
	// item i's header is parsed into events[i], and evs[i] points at it
	// or is nil for a dropped item.
	events []pubsub.Event
	evs    []*pubsub.Event
}

// NewPlainSlice wraps an existing engine (sharing the hub schema).
func NewPlainSlice(engine *core.Engine, schema *pubsub.Schema) *PlainSlice {
	return &PlainSlice{engine: engine, schema: schema}
}

// Engine exposes the wrapped containment engine (observability and the
// experiment harness read its stats and shape).
func (s *PlainSlice) Engine() *core.Engine { return s.engine }

// Configure accepts only the plain scheme's empty parameter blob.
func (s *PlainSlice) Configure(params []byte) error {
	if len(params) != 0 {
		return fmt.Errorf("scheme: %s expects no parameters, got %d bytes", Plain, len(params))
	}
	return nil
}

func (s *PlainSlice) decode(enc []byte) (*pubsub.Subscription, error) {
	spec, err := pubsub.DecodeSubscriptionSpec(enc)
	if err != nil {
		return nil, fmt.Errorf("decoding subscription: %w", err)
	}
	return pubsub.Normalize(s.schema, spec)
}

func (s *PlainSlice) RegisterEncodedAssigned(enc []byte, clientRef uint32, id uint64) error {
	sub, err := s.decode(enc)
	if err != nil {
		return err
	}
	return s.engine.RegisterAssigned(sub, clientRef, id)
}

func (s *PlainSlice) Unregister(id uint64) error { return s.engine.Unregister(id) }

// header parses item i's wire header into scratch event i, growing the
// scratch to hold it. Pointers handed out earlier stay valid: growing
// leaves the events already parsed where they were.
func (s *PlainSlice) header(i int, enc []byte) (*pubsub.Event, error) {
	for len(s.events) <= i {
		s.events = append(s.events, pubsub.Event{})
	}
	ev := &s.events[i]
	if err := pubsub.DecodeEventInto(s.schema, enc, ev); err != nil {
		return nil, fmt.Errorf("decoding header: %w", err)
	}
	return ev, nil
}

// MatchRecords parses every header into reused scratch, then crosses
// into the engine once: one lock acquisition and one walk of each
// forest per 64 items, every stored record read once per walk however
// many items reach it — the sgx-plain counterpart of the ASPE store's
// single database scan.
func (s *PlainSlice) MatchRecords(encs [][]byte, out []core.Record) ([]core.Record, error) {
	s.evs = s.evs[:0]
	for i, enc := range encs {
		ev, _ := s.header(i, enc) // nil: an undecodable item is dropped
		s.evs = append(s.evs, ev)
	}
	return s.engine.MatchRecords(s.evs, out), nil
}

func (s *PlainSlice) Stats() SliceStats {
	st := s.engine.Stats()
	return SliceStats{Subscriptions: st.Subscriptions, Bytes: st.Bytes}
}

func (s *PlainSlice) Accessor() simmem.Accessor { return s.engine.Accessor() }
