package simmem

// Pager is notified once per distinct page spanned by an access. The
// enclave layer implements it with EPC residency management; the plain
// layer implements soft-fault accounting. It returns the extra cycles
// the touch cost.
type Pager interface {
	Touch(page uint64, write bool) (extraCycles uint64)
}

// Residency is implemented by pagers that track a resident working
// set. ResidentBytes returns the bytes currently resident and the
// high-water mark since the pager was built — the quantity deployment
// plans are validated against (a slice whose peak approaches its EPC
// share is at the paging cliff).
type Residency interface {
	ResidentBytes() (resident, peak uint64)
}

// Meter charges simulated cycles for memory accesses and CPU work. One
// Meter corresponds to one core running the filtering engine, matching
// the paper's single-machine filter deployment.
type Meter struct {
	Cost    CostModel
	LLC     *LLC
	C       Counters
	enclave bool
	pager   Pager

	_ [256 - 224]byte // whole cache lines, as for the LLC
}

// NewMeter builds a meter in plain (non-enclave) mode with the default
// LLC geometry.
func NewMeter(cost CostModel) *Meter {
	return &Meter{Cost: cost, LLC: NewDefaultLLC()}
}

// SetEnclave switches MEE charging on LLC misses on or off.
func (m *Meter) SetEnclave(on bool) { m.enclave = on }

// Enclave reports whether the meter charges MEE costs.
func (m *Meter) Enclave() bool { return m.enclave }

// SetPager installs the residency layer.
func (m *Meter) SetPager(p Pager) { m.pager = p }

// Residency reports the pager's resident-set size and high-water mark.
// ok is false when no pager is installed or it does not track
// residency.
func (m *Meter) Residency() (resident, peak uint64, ok bool) {
	r, isTracked := m.pager.(Residency)
	if !isTracked {
		return 0, 0, false
	}
	resident, peak = r.ResidentBytes()
	return resident, peak, true
}

// Access charges for a read or write of size bytes at addr: one LLC
// lookup per spanned cache line, DRAM cost per miss, MEE cost per miss
// in enclave mode, and a pager touch per spanned page.
func (m *Meter) Access(addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	end := addr + uint64(size) - 1
	if m.pager != nil {
		for p, last := pageOf(addr), pageOf(end); p <= last; p++ {
			m.C.Cycles += m.pager.Touch(p, write)
		}
	}
	llc := m.LLC
	first, last := addr>>llc.lineShift, end>>llc.lineShift
	var misses uint64
	for line := first; line <= last; line++ {
		if !llc.hit(line) {
			llc.install(line)
			misses++
		}
	}
	m.C.LLCHits += last - first + 1 - misses
	m.C.Cycles += (last - first + 1) * m.Cost.LLCHitCycles
	if misses > 0 {
		m.C.LLCMisses += misses
		missCycles := m.Cost.DRAMCycles
		if m.enclave {
			missCycles += m.Cost.MEECycles
		}
		m.C.Cycles += misses * missCycles
	}
	if write {
		m.C.BytesWritten += uint64(size)
	} else {
		m.C.BytesRead += uint64(size)
	}
}

// Charge adds raw CPU cycles (predicate evaluation, arithmetic, ...).
func (m *Meter) Charge(cycles uint64) { m.C.Cycles += cycles }

// ChargeAES charges the simulated cost of decrypting (or encrypting) an
// n-byte message: fixed setup plus the per-byte stream cost.
func (m *Meter) ChargeAES(n int) {
	m.C.Cycles += m.Cost.AESFixedCycles + uint64(m.Cost.AESByteCycles*float64(n))
	m.C.CryptoBytes += uint64(n)
}

// ChargeTransition charges one ecall round trip.
func (m *Meter) ChargeTransition() {
	m.C.Cycles += m.Cost.EnclaveTransitionCycles
	m.C.Transitions++
}
