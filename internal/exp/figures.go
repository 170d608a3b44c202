package exp

import (
	"fmt"

	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// Fig5Row is one x-position of Figure 5: the four configurations'
// matching time at a database size (workload e100a1).
type Fig5Row struct {
	Subs     int
	InAES    float64 // µs per matching operation
	InPlain  float64
	OutAES   float64
	OutPlain float64
}

// Figure5 reproduces "Overhead of encryption and enclave".
func Figure5(cfg Config) ([]Fig5Row, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.SpecByName("e100a1")
	if err != nil {
		return nil, err
	}
	subGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	pubGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+200)
	if err != nil {
		return nil, err
	}
	pubs := pubGen.Publications(cfg.PubBatch)

	// The four configurations, in Fig5Row's column order.
	runs := make([]*runner, 0, 4)
	for _, c := range []struct {
		mem    memory
		sealed bool
	}{{epcMemory, true}, {epcMemory, false}, {untrusted, true}, {untrusted, false}} {
		r, err := plainRunner(cfg, c.mem, c.sealed)
		if err != nil {
			return nil, err
		}
		if err := r.prepare(pubs); err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}

	rows := make([]Fig5Row, 0, len(cfg.Sizes))
	registered := 0
	for _, size := range cfg.Sizes {
		batch := subGen.Subscriptions(size - registered)
		registered = size
		var micros [4]float64
		for i, r := range runs {
			if _, err := r.register(batch, 1); err != nil {
				return nil, err
			}
			if micros[i], _, err = r.matchAll(); err != nil {
				return nil, err
			}
		}
		rows = append(rows, Fig5Row{Subs: size, InAES: micros[0], InPlain: micros[1], OutAES: micros[2], OutPlain: micros[3]})
	}
	return rows, nil
}

// Fig6Row is one x-position of Figure 6: per-workload plaintext
// matching time outside enclaves.
type Fig6Row struct {
	Subs   int
	Micros map[string]float64 // workload name → µs/op
}

// Figure6 reproduces "Performance of the containment-based algorithm
// applied to the different workloads in plaintext, outside enclaves".
func Figure6(cfg Config) ([]Fig6Row, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	type wl struct {
		name string
		gen  *workload.Generator
		run  *runner
	}
	var wls []wl
	for i, spec := range workload.Table1() {
		subGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+int64(i)*17+100)
		if err != nil {
			return nil, err
		}
		pubGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+int64(i)*17+200)
		if err != nil {
			return nil, err
		}
		run, err := plainRunner(cfg, untrusted, false)
		if err != nil {
			return nil, err
		}
		if err := run.prepare(pubGen.Publications(cfg.PubBatch)); err != nil {
			return nil, err
		}
		wls = append(wls, wl{name: spec.Name, gen: subGen, run: run})
	}
	rows := make([]Fig6Row, 0, len(cfg.Sizes))
	registered := 0
	for _, size := range cfg.Sizes {
		row := Fig6Row{Subs: size, Micros: make(map[string]float64, len(wls))}
		for _, w := range wls {
			if _, err := w.run.register(w.gen.Subscriptions(size-registered), 1); err != nil {
				return nil, err
			}
			micros, _, err := w.run.matchAll()
			if err != nil {
				return nil, err
			}
			row.Micros[w.name] = micros
		}
		registered = size
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7Row is one x-position of one Figure 7 panel.
type Fig7Row struct {
	Subs     int
	OutASPE  float64
	InAES    float64
	OutAES   float64
	MissRate float64 // LLC miss rate of the Out AES run
}

// Figure7 reproduces one panel of "Comparison of different approaches
// with varying workloads" for the named workload.
func Figure7(cfg Config, name string) ([]Fig7Row, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.SpecByName(name)
	if err != nil {
		return nil, err
	}
	subGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+300)
	if err != nil {
		return nil, err
	}
	pubGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+400)
	if err != nil {
		return nil, err
	}
	pubs := pubGen.Publications(cfg.PubBatch)

	inRun, err := plainRunner(cfg, epcMemory, true)
	if err != nil {
		return nil, err
	}
	outRun, err := plainRunner(cfg, untrusted, true)
	if err != nil {
		return nil, err
	}
	// ASPE matches ciphertext in untrusted memory — the scheme's selling
	// point — over a fixed attribute universe (the workload's merged
	// arity), scales calibrated from a publication sample.
	sample := pubs[:min(len(pubs), 200)]
	codec, err := scheme.NewCodec(scheme.ASPE,
		scheme.WithAttrs(workload.QuoteAttrs(spec.AttrFactor)...),
		scheme.WithSeed(cfg.Seed+500),
		scheme.WithCalibration(sample...))
	if err != nil {
		return nil, err
	}
	aspeRun, err := newRunner(cfg, untrusted, false, codec, pubsub.NewSchema())
	if err != nil {
		return nil, err
	}
	runs := []*runner{inRun, outRun, aspeRun}
	for _, r := range runs {
		if err := r.prepare(pubs); err != nil {
			return nil, err
		}
	}

	rows := make([]Fig7Row, 0, len(cfg.Sizes))
	registered := 0
	for _, size := range cfg.Sizes {
		batch := subGen.Subscriptions(size - registered)
		registered = size
		for _, r := range runs {
			if _, err := r.register(batch, 1); err != nil {
				return nil, err
			}
		}
		row := Fig7Row{Subs: size}
		if row.InAES, _, err = inRun.matchAll(); err != nil {
			return nil, err
		}
		var delta simmem.Counters
		if row.OutAES, delta, err = outRun.matchAll(); err != nil {
			return nil, err
		}
		row.MissRate = delta.MissRate()
		// Only the matching step is measured, points pre-encrypted, as
		// in the paper: "we measured only the matching step, and not the
		// encryption or decryption of ASPE messages".
		nPubs := cfg.PubBatch
		if budget := cfg.ASPEPubBudget / max(size, 1); budget < nPubs {
			nPubs = max(5, budget)
		}
		nPubs = min(nPubs, len(aspeRun.headers))
		if delta, err = aspeRun.match(aspeRun.headers[:nPubs], 1); err != nil {
			return nil, err
		}
		row.OutASPE = aspeRun.perOp(delta, nPubs)
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure7All runs every panel.
func Figure7All(cfg Config) (map[string][]Fig7Row, error) {
	out := make(map[string][]Fig7Row, 9)
	for _, spec := range workload.Table1() {
		rows, err := Figure7(cfg, spec.Name)
		if err != nil {
			return nil, fmt.Errorf("exp: figure 7 %s: %w", spec.Name, err)
		}
		out[spec.Name] = rows
	}
	return out, nil
}
