package simmem

// Accessor is the memory interface the matching engine is written
// against. The same engine code runs against a plain accessor (the
// paper's "outside the enclave" configuration) and an enclave accessor
// backed by the EPC model (the "inside" configuration), mirroring the
// paper's methodology of running identical filtering code in both
// environments.
type Accessor interface {
	// Alloc reserves n bytes (n ≤ PageSize) and returns their offset.
	Alloc(n int) (uint64, error)
	// Read meters a read of [off, off+n) and returns a view of the
	// bytes. The view is valid until the next Alloc/Read/Write call.
	Read(off uint64, n int) []byte
	// Write meters a write and copies b into [off, off+len(b)).
	Write(off uint64, b []byte)
	// Charge adds raw CPU cycles.
	Charge(cycles uint64)
	// Meter exposes the underlying meter for counters and cost model.
	Meter() *Meter
	// Size returns the bytes allocated so far.
	Size() uint64
}

// PlainAccessor runs the engine outside any enclave: accesses cost LLC
// lookups and DRAM misses, and first touches of new memory cost a soft
// fault per THP-sized (2 MB) region, matching Linux with transparent
// huge pages enabled — the reason the paper's outside-enclave minor
// fault counts stay small.
type PlainAccessor struct {
	arena *Arena
	meter *Meter
	thp   *thpPager
}

var (
	_ Accessor  = (*PlainAccessor)(nil)
	_ Residency = (*thpPager)(nil)
)

// THPRegionPages is the number of 4 KB pages per transparent huge page.
const THPRegionPages = 512 // 2 MB

type thpPager struct {
	cost CostModel
	c    *Counters
	// touched is indexed by region number: arena pages are dense
	// from 0. It starts with room for a whole cache line of regions
	// (128 MB), so it never shares one with an allocator neighbour.
	touched []bool
}

func (t *thpPager) Touch(page uint64, _ bool) uint64 {
	region := page / THPRegionPages
	if region < uint64(len(t.touched)) && t.touched[region] {
		return 0
	}
	if n := uint64(len(t.touched)); region >= n {
		t.touched = append(t.touched, make([]bool, region+1-n)...)
	}
	t.touched[region] = true
	t.c.MinorFaults++
	return t.cost.MinorFaultCycles
}

// ResidentBytes implements Residency. Plain memory is never evicted,
// so the resident set is every THP region ever touched and the peak
// equals the current size.
func (t *thpPager) ResidentBytes() (resident, peak uint64) {
	for _, touched := range t.touched {
		if touched {
			resident += THPRegionPages * PageSize
		}
	}
	return resident, resident
}

// NewPlainAccessor builds an accessor in plain mode.
func NewPlainAccessor(cost CostModel) *PlainAccessor {
	meter := NewMeter(cost)
	pager := &thpPager{cost: cost, c: &meter.C, touched: make([]bool, 0, 64)}
	meter.SetPager(pager)
	return &PlainAccessor{arena: NewArena(), meter: meter, thp: pager}
}

// Alloc implements Accessor.
func (p *PlainAccessor) Alloc(n int) (uint64, error) { return p.arena.Alloc(n) }

// Read implements Accessor.
func (p *PlainAccessor) Read(off uint64, n int) []byte {
	p.meter.Access(off, n, false)
	return p.arena.Bytes(off, n)
}

// Write implements Accessor.
func (p *PlainAccessor) Write(off uint64, b []byte) {
	p.meter.Access(off, len(b), true)
	copy(p.arena.Bytes(off, len(b)), b)
}

// Charge implements Accessor.
func (p *PlainAccessor) Charge(cycles uint64) { p.meter.Charge(cycles) }

// Meter implements Accessor.
func (p *PlainAccessor) Meter() *Meter { return p.meter }

// Size implements Accessor.
func (p *PlainAccessor) Size() uint64 { return p.arena.Size() }
