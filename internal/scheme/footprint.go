package scheme

import "fmt"

// FootprintModel predicts how many bytes of slice-store memory a
// scheme's subscription database occupies — the quantity the Fig. 8
// paging cliff is measured against. The planner (internal/deploy) uses
// it to size partition counts so every slice's working set stays under
// its EPC share. It is a prediction only: the actuals a plan is held
// against are each slice's measured store bytes
// (broker.Router.SliceFootprints).
//
// The model is linear in the subscription count and, where the scheme's
// encoding scales with the attribute universe (ASPE: vector
// dimensionality is 2·attrs+2), in the universe width:
//
//	footprint(subs, attrs) = Base + subs · (SubBytes + attrs · SubAttrBytes)
//
// The constants are measured from real stores — workload-generated
// subscriptions registered into freshly built slices — and pinned by
// TestFootprintModelMatchesStores, which re-measures and fails if the
// model drifts more than tolerance from the stores it claims to
// describe. `scbr-workload -scheme` reports the same cross-check for
// arbitrary workloads.
type FootprintModel struct {
	// BaseBytes is the empty store: arena bootstrap plus index pages
	// touched before the first entry.
	BaseBytes uint64
	// SubBytes is the per-subscription cost independent of the
	// attribute universe (record headers, predicate storage, index
	// growth).
	SubBytes uint64
	// SubAttrBytes is the additional per-subscription cost for each
	// attribute in the scheme's universe. Zero for schemes whose entry
	// size depends only on the subscription itself (sgx-plain stores
	// the predicates that arrive, not the universe).
	SubAttrBytes uint64
}

// Measured footprint constants for the built-in schemes. Derived from
// live stores over Table 1 workloads (see TestFootprintModelMatchesStores,
// which re-measures and pins these within tolerance): register
// workload-generated subscriptions into a freshly built slice, read the
// arena watermark back, and fit the linear model over two universe
// widths.
var (
	// PlainFootprint: the containment engine stores the predicates
	// that arrive, so the cost is per subscription and independent of
	// the universe width. Unpadded engine records measure ≈126 B per
	// e80a1 subscription and ≈128 B per e80a4 one (avg 80 B wire
	// encoding + record/index overhead; a node holds its first
	// subscriber in its header, so a subscription that shares no node
	// has no subscriber record); the paper's ≈437 B/subscription figure corresponds to
	// PadRecordTo≈400 deployments, which this model does not assume.
	PlainFootprint = FootprintModel{
		BaseBytes:    8192,
		SubBytes:     126,
		SubAttrBytes: 0,
	}
	// ASPEFootprint: every subscription stores ciphertext query
	// vectors of dimension 2·attrs+2 at 8 bytes per coordinate, so the
	// cost scales with the universe: measured ≈2.1 KB/subscription at
	// the base 11-attribute quote universe and ≈8.7 KB at ×4 — the
	// ~5×-earlier paging cliff of ROADMAP item 4. The store holds the
	// wire ciphertext essentially as-is, so the per-attribute slope
	// carries the whole cost (the fitted intercept is ≈0).
	ASPEFootprint = FootprintModel{
		BaseBytes:    16384,
		SubBytes:     0,
		SubAttrBytes: 196,
	}
)

// Zero reports whether the model is unset.
func (m FootprintModel) Zero() bool {
	return m == FootprintModel{}
}

// PerSubscription returns the modelled store bytes one subscription
// adds under a universe of the given width.
func (m FootprintModel) PerSubscription(attrs int) uint64 {
	if attrs < 0 {
		attrs = 0
	}
	return m.SubBytes + uint64(attrs)*m.SubAttrBytes
}

// Footprint returns the modelled store bytes of a subscription database
// of the given size under a universe of the given width.
func (m FootprintModel) Footprint(subs, attrs int) uint64 {
	if subs < 0 {
		subs = 0
	}
	return m.BaseBytes + uint64(subs)*m.PerSubscription(attrs)
}

// Footprint resolves a scheme and evaluates its footprint model.
func Footprint(name string, subs, attrs int) (uint64, error) {
	b, err := Lookup(name)
	if err != nil {
		return 0, err
	}
	if b.Footprint.Zero() {
		return 0, fmt.Errorf("scheme: %s has no footprint model", b.Name)
	}
	return b.Footprint.Footprint(subs, attrs), nil
}
