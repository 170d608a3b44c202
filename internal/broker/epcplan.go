package broker

// EPC budgeting for the partitioned data plane. The router divides its
// configured EPC budget evenly across its matcher slices: EPCBytes is
// hashed into the enclave measurement, so every slice MUST launch with
// the same share or migration's seal-to-MRENCLAVE transport would
// refuse to move state between them. The planner-facing surfaces here
// report what each slice actually holds against that share and
// recommend a partition count from the live store footprint.

import (
	"scbr/internal/sgx"
	"scbr/internal/simmem"
	"scbr/internal/streamhub"
)

// SliceEPCShare computes each matcher slice's EPC budget for a router
// with totalBytes of EPC across k partitions. The share is identical
// for every slice (EPCBytes is part of the measured enclave identity)
// and remainder-aware: ceil(total/k) rounded up to a whole page, so no
// EPC is silently lost to integer truncation — the fleet's k·share is
// always ≥ total, never below it. totalBytes 0 means the default EPC
// (sgx.DefaultEPCBytes); k below 1 is treated as 1.
func SliceEPCShare(totalBytes uint64, k int) uint64 {
	if totalBytes == 0 {
		totalBytes = sgx.DefaultEPCBytes
	}
	if k < 1 {
		k = 1
	}
	share := (totalBytes + uint64(k) - 1) / uint64(k)
	if rem := share % simmem.PageSize; rem != 0 {
		share += simmem.PageSize - rem
	}
	return share
}

// SliceFootprint reports one matcher slice's memory position: what its
// store holds, measured, and how much EPC it has actually needed
// (residency high-water mark) against its budget — the actuals a
// deployment plan is validated against, and how close the slice is to
// its paging cliff. It is the router's one account of what a slice
// stores; DataPlaneStats and RecommendPartitions are built from it.
type SliceFootprint struct {
	// Partition is the slice index.
	Partition int `json:"partition"`
	// Subscriptions is the slice store's live subscription count.
	Subscriptions int `json:"subscriptions"`
	// StoreBytes is the slice store's arena footprint: its peak live
	// set, for both schemes, since each reuses the records it unlinks
	// before its arena grows.
	StoreBytes uint64 `json:"store_bytes"`
	// EPCBudget is the slice's launch-time EPC share.
	EPCBudget uint64 `json:"epc_budget"`
	// ResidentBytes and PeakResidentBytes are the enclave pager's
	// current and high-water resident sets; zero with Tracked=false
	// when the accessor does not track residency.
	ResidentBytes     uint64 `json:"resident_bytes"`
	PeakResidentBytes uint64 `json:"peak_resident_bytes"`
	// ResidencyTracked reports whether the residency figures are real.
	ResidencyTracked bool `json:"residency_tracked"`
}

// SliceFootprints returns each slice's memory position, indexed by
// partition. Like SliceMeterSnapshots, each slice is read coherently
// under its partition lock, one slice at a time.
func (r *Router) SliceFootprints() []SliceFootprint {
	r.planeMu.RLock()
	defer r.planeMu.RUnlock()
	out := make([]SliceFootprint, len(r.parts))
	for i, p := range r.parts {
		p.mu.Lock()
		st := p.slice.Stats()
		resident, peak, tracked := p.slice.Accessor().Meter().Residency()
		p.mu.Unlock()
		out[i] = SliceFootprint{
			Partition:         i,
			Subscriptions:     st.Subscriptions,
			StoreBytes:        st.Bytes,
			EPCBudget:         r.epcPer,
			ResidentBytes:     resident,
			PeakResidentBytes: peak,
			ResidencyTracked:  tracked,
		}
	}
	return out
}

// recommendHeadroomNum/Den keep each slice's working set at or below
// 7/8 of its EPC share, leaving room for growth before the paging
// cliff.
const (
	recommendHeadroomNum = 7
	recommendHeadroomDen = 8
)

// RecommendPartitions sizes the partition count from the live store
// footprint: the smallest k whose per-slice working set fits under the
// fixed per-slice EPC share with headroom. The share itself cannot
// change after construction (it is part of the measured identity), so
// the recommendation divides the CURRENT total store bytes by the
// usable fraction of one share, clamped to [1, min(MaxPartitions,
// shards)]. The store bytes are SliceFootprints', each read under its
// partition lock. Repartition(ctx, 0) resizes to this value.
func (r *Router) RecommendPartitions() int {
	usable := max(r.epcPer*recommendHeadroomNum/recommendHeadroomDen, 1)
	k := int((r.DataPlaneStats().Bytes + usable - 1) / usable)
	return min(max(k, 1), streamhub.MaxPartitions, r.pm.Shards())
}
