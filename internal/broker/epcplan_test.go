package broker

import (
	"testing"

	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

func TestSliceEPCShare(t *testing.T) {
	cases := []struct {
		name  string
		total uint64
		k     int
		want  uint64
	}{
		// Page-divisible split: unchanged from plain division.
		{"divisible", 93 << 20, 4, 24379392},
		// The truncating split used to hand each of 4 slices a single
		// 5120-byte (sub-2-page) share of 5 pages, losing the remainder;
		// the ceil split rounds each share up to 2 whole pages.
		{"small budget", 5 * simmem.PageSize, 4, 2 * simmem.PageSize},
		// A 3-byte remainder bumps every share a full page rather than
		// vanishing.
		{"remainder", 93<<20 + 3, 4, 24383488},
		// A share can never drop below one page, however many slices.
		{"floor", simmem.PageSize, 8, simmem.PageSize},
		// Zero means the paper's default EPC; k<1 is treated as 1.
		{"defaults", 0, 0, sgx.DefaultEPCBytes},
	}
	for _, c := range cases {
		if got := SliceEPCShare(c.total, c.k); got != c.want {
			t.Errorf("%s: SliceEPCShare(%d, %d) = %d, want %d", c.name, c.total, c.k, got, c.want)
		}
	}

	// Fleet coverage: for any budget and slice count, k equal shares
	// must cover the whole budget (the truncating split violated this),
	// and every share is whole pages.
	for _, total := range []uint64{1, 4097, 1 << 20, 93 << 20, 93<<20 + 1} {
		for k := 1; k <= 9; k++ {
			share := SliceEPCShare(total, k)
			if uint64(k)*share < total {
				t.Errorf("SliceEPCShare(%d, %d) = %d: fleet covers %d < budget", total, k, share, uint64(k)*share)
			}
			if share%simmem.PageSize != 0 {
				t.Errorf("SliceEPCShare(%d, %d) = %d: not page-aligned", total, k, share)
			}
		}
	}
}

func TestSliceFootprints(t *testing.T) {
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) {
		cfg.Partitions = 2
		cfg.EPCBytes = 1 << 20
	})
	alice, _ := sys.attach("alice")
	for i := 0; i < 8; i++ {
		if _, err := alice.Subscribe(bg, halSpec(float64(40+i))); err != nil {
			t.Fatal(err)
		}
	}

	fps := sys.router.SliceFootprints()
	if len(fps) != 2 {
		t.Fatalf("footprints for %d slices, want 2", len(fps))
	}
	wantBudget := SliceEPCShare(1<<20, 2)
	var subs int
	for _, fp := range fps {
		subs += fp.Subscriptions
		if fp.EPCBudget != wantBudget {
			t.Errorf("slice %d budget %d, want %d", fp.Partition, fp.EPCBudget, wantBudget)
		}
		if !fp.ResidencyTracked {
			t.Errorf("slice %d residency untracked (enclave slices page through the EPC model)", fp.Partition)
		}
		if fp.PeakResidentBytes < fp.ResidentBytes {
			t.Errorf("slice %d peak %d below resident %d", fp.Partition, fp.PeakResidentBytes, fp.ResidentBytes)
		}
		if fp.Subscriptions > 0 && fp.StoreBytes == 0 {
			t.Errorf("slice %d holds %d subscriptions in 0 store bytes", fp.Partition, fp.Subscriptions)
		}
	}
	if subs != 8 {
		t.Fatalf("footprints count %d subscriptions, want 8", subs)
	}
}
