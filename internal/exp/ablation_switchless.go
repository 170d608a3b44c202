package exp

import (
	"fmt"

	"scbr/internal/sgx"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// SwitchlessRow is one configuration of the enclave-border ablation:
// how publications reach the in-enclave matcher. The paper's §6 lists
// both remedies for transition overhead — "message batching" and
// "implementing message exchanges at the enclave border" — and this
// ablation measures them side by side on one registered database.
type SwitchlessRow struct {
	// Mode is "ecall/N" (N publications per enclave transition, N = 1,
	// 2, 5, 10, 50, 100) or "switchless" (untrusted-memory ring, one
	// transition total).
	Mode string
	// Micros is the simulated matching time per publication including
	// delivery overhead (transitions or ring polls) and AES.
	Micros float64
	// TransitionShare is the fraction of cycles spent in EENTER/EEXIT.
	TransitionShare float64
	// Transitions is the absolute number of enclave round trips used
	// to deliver the whole batch.
	Transitions uint64
}

// AblationSwitchless measures in-enclave AES matching on e100a1 at the
// largest configured size, delivering the publication batch through
// ecalls of 1 to 100 publications each and through the switchless
// ring.
func AblationSwitchless(cfg Config) ([]SwitchlessRow, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.SpecByName("e100a1")
	if err != nil {
		return nil, err
	}
	subGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+600)
	if err != nil {
		return nil, err
	}
	pubGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+700)
	if err != nil {
		return nil, err
	}
	run, err := plainRunner(cfg, epcMemory, true)
	if err != nil {
		return nil, err
	}
	if _, err := run.register(subGen.Subscriptions(cfg.Sizes[len(cfg.Sizes)-1]), 1); err != nil {
		return nil, err
	}
	if err := run.prepare(pubGen.Publications(cfg.PubBatch)); err != nil {
		return nil, err
	}
	row := func(mode string, delta simmem.Counters) SwitchlessRow {
		return SwitchlessRow{
			Mode:            mode,
			Micros:          run.perOp(delta, len(run.headers)),
			TransitionShare: float64(delta.Transitions*cfg.Cost.EnclaveTransitionCycles) / float64(delta.Cycles),
			Transitions:     delta.Transitions,
		}
	}

	var rows []SwitchlessRow
	for _, batch := range []int{1, 2, 5, 10, 50, 100} {
		delta, err := run.match(run.headers, batch)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row(fmt.Sprintf("ecall/%d", batch), delta))
	}

	// Switchless: the host pushes ciphertext into the ring; the worker
	// entered once and consumes until close.
	ring, err := sgx.NewRing(64)
	if err != nil {
		return nil, err
	}
	pushErr := make(chan error, 1)
	go func() {
		defer ring.Close()
		for _, h := range run.headers {
			if err := ring.Push(h); err != nil {
				pushErr <- err
				return
			}
		}
		pushErr <- nil
	}()
	before := run.meter.C
	if err := run.enclave.ServeRing(ring, run.matchOne); err != nil {
		return nil, err
	}
	if err := <-pushErr; err != nil {
		return nil, err
	}
	return append(rows, row("switchless", run.meter.C.Sub(before))), nil
}
