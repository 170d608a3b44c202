package core

import (
	"testing"

	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

func newTestDevice(t testing.TB) *sgx.Device {
	t.Helper()
	d, err := sgx.NewDevice([]byte("core-test-device"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func launchTestEnclave(t testing.TB, d *sgx.Device, epcBytes uint64) *sgx.Enclave {
	t.Helper()
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := d.Launch([]byte("scbr matching engine image"), signer.Public(), sgx.EnclaveConfig{EPCBytes: epcBytes})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newPlainAcc() simmem.Accessor {
	return simmem.NewPlainAccessor(simmem.DefaultCost())
}
