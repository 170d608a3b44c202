package sgx

import (
	"testing"

	"scbr/internal/simmem"
)

// TestResidencyHighWaterMarks drives both enclave accessors past their
// residency budget and checks the high-water mark semantics the
// deployment planner validates plans against: peak never exceeds the
// budget, never falls below the current resident set, and survives
// eviction (the resident count drops back, the peak does not).
func TestResidencyHighWaterMarks(t *testing.T) {
	const budget = 8 * simmem.PageSize

	for _, pager := range []string{"epc", "split"} {
		t.Run(pager, func(t *testing.T) {
			e := launch(t, testDevice(t), []byte("resident"), EnclaveConfig{EPCBytes: budget})
			acc := e.Memory()
			if pager == "split" {
				var err error
				if acc, err = e.SplitMemory(budget); err != nil {
					t.Fatal(err)
				}
			}
			checkResidency(t, acc, acc.Meter(), budget)
			if acc.PeakResidentPages() != 8 {
				t.Errorf("peak resident pages: got %d, want the full budget 8", acc.PeakResidentPages())
			}
		})
	}

	t.Run("plain", func(t *testing.T) {
		acc := simmem.NewPlainAccessor(simmem.DefaultCost())
		writePages(t, acc, 16)
		resident, peak, ok := acc.Meter().Residency()
		if !ok {
			t.Fatal("plain accessor reports no residency")
		}
		// Plain memory never evicts: peak == resident, THP granularity.
		if resident != peak || resident == 0 {
			t.Errorf("plain residency: resident %d, peak %d", resident, peak)
		}
	})
}

func writePages(t *testing.T, acc simmem.Accessor, pages int) {
	t.Helper()
	buf := make([]byte, simmem.PageSize)
	for i := 0; i < pages; i++ {
		off, err := acc.Alloc(simmem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		acc.Write(off, buf)
	}
}

func checkResidency(t *testing.T, acc simmem.Accessor, meter *simmem.Meter, budget uint64) {
	t.Helper()
	// Touch double the budget so eviction has happened.
	writePages(t, acc, 16)
	resident, peak, ok := meter.Residency()
	if !ok {
		t.Fatal("enclave accessor reports no residency")
	}
	if peak > budget {
		t.Errorf("peak %d exceeds budget %d", peak, budget)
	}
	if resident > peak {
		t.Errorf("resident %d exceeds peak %d", resident, peak)
	}
	if peak != budget {
		t.Errorf("peak %d: want the full budget %d after overflow", peak, budget)
	}
}
