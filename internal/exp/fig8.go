package exp

import (
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// Fig8Row is one x-position of Figure 8: ratios of in-enclave to
// outside-enclave registration cost as the subscription store grows
// past the EPC limit (workload e80a1, plaintext registration, one
// point per Fig8Step subscriptions).
type Fig8Row struct {
	Subs int
	// DBMB is the in-enclave store size in MB (the x-axis).
	DBMB float64
	// TimeRatio is (in-enclave registration time) / (outside time) for
	// this window of insertions (left axis; reaches ~18× at 213 MB in
	// the paper).
	TimeRatio float64
	// FaultRatio is (EPC page faults inside) / (soft faults outside)
	// for the window (right axis; reaches ~4·10⁴ in the paper).
	// Windows where the outside run faulted zero times use 1 as the
	// denominator.
	FaultRatio float64
	// InMicros and OutMicros are the per-subscription registration
	// costs of the window.
	InMicros  float64
	OutMicros float64
}

// Figure8 reproduces "Loss in performance when exceeding EPC memory
// limit".
func Figure8(cfg Config) ([]Fig8Row, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+800)
	if err != nil {
		return nil, err
	}
	in, err := plainRunner(cfg, epcMemory, false)
	if err != nil {
		return nil, err
	}
	out, err := plainRunner(cfg, untrusted, false)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	err = sweep(gen, cfg.Fig8Subs, cfg.Fig8Step, []*runner{in, out}, func(subs int, d []simmem.Counters) {
		row := Fig8Row{
			Subs:       subs,
			DBMB:       in.mb(),
			InMicros:   in.perOp(d[0], cfg.Fig8Step),
			OutMicros:  out.perOp(d[1], cfg.Fig8Step),
			FaultRatio: float64(d[0].PageFaults) / float64(max(d[1].MinorFaults, 1)),
		}
		row.TimeRatio = row.InMicros / row.OutMicros
		rows = append(rows, row)
	})
	return rows, err
}

// Table1Row reports the realised characteristics of one generated
// workload against its Table 1 specification.
type Table1Row struct {
	Name     string
	Spec     workload.Spec
	Mix      workload.Mix
	AvgAttrs float64 // average publication attribute count
	MinAttrs int
	MaxAttrs int
	Samples  int
}

// Table1Stats generates n subscriptions and publications per workload
// and reports the realised proportions — the reproduction of Table 1.
func Table1Stats(cfg Config, n int) ([]Table1Row, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, 9)
	for i, spec := range workload.Table1() {
		gen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+int64(i)*31+900)
		if err != nil {
			return nil, err
		}
		subs := gen.Subscriptions(n)
		row := Table1Row{Name: spec.Name, Spec: spec, Mix: workload.AnalyzeSpecs(subs), Samples: n, MinAttrs: 1 << 30}
		total := 0
		for _, p := range gen.Publications(n / 10) {
			c := len(p.Attrs)
			total += c
			if c < row.MinAttrs {
				row.MinAttrs = c
			}
			if c > row.MaxAttrs {
				row.MaxAttrs = c
			}
		}
		row.AvgAttrs = float64(total) / float64(n/10)
		rows = append(rows, row)
	}
	return rows, nil
}
