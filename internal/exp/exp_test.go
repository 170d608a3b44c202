package exp

import (
	"math"
	"reflect"
	"testing"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// smallConfig keeps harness smoke tests fast: a reduced corpus,
// reduced sizes, and a tiny EPC so the Figure 8 knee appears quickly.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSymbols = 40
	cfg.PerSymbol = 100
	cfg.Sizes = []int{200, 500, 1_000}
	cfg.PubBatch = 50
	cfg.ASPEPubBudget = 50_000
	cfg.Fig8Subs = 8_000
	cfg.Fig8Step = 500
	cfg.EPCBytes = 256 * simmem.PageSize // 1 MB
	return cfg
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OutPlain <= 0 || r.OutAES <= 0 || r.InPlain <= 0 || r.InAES <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		// AES adds cost over plain in the same locality.
		if r.OutAES < r.OutPlain {
			t.Errorf("AES outside cheaper than plain: %+v", r)
		}
		if r.InAES < r.InPlain {
			t.Errorf("AES inside cheaper than plain: %+v", r)
		}
		// Enclave execution costs at least the transition overhead.
		if r.InPlain < r.OutPlain {
			t.Errorf("enclave cheaper than plain: %+v", r)
		}
	}
	// Matching time grows with database size.
	if rows[len(rows)-1].OutPlain <= rows[0].OutPlain {
		t.Errorf("no growth with database size: %+v", rows)
	}
}

// TestFiguresRepeat: every figure is simulated, so two runs of one
// configuration in one process read the same rows to the bit. It holds
// only while every run interns its attribute names in one order and no
// map iteration or wall clock reaches a simulated count.
func TestFiguresRepeat(t *testing.T) {
	cfg := smallConfig()
	for _, tc := range []struct {
		name string
		run  func() (any, error)
	}{
		{"Figure5", func() (any, error) { return Figure5(cfg) }},
		{"Figure6", func() (any, error) { return Figure6(cfg) }},
		{"Figure7", func() (any, error) { return Figure7All(cfg) }},
		{"Figure8", func() (any, error) { return Figure8(cfg) }},
		{"Table1", func() (any, error) { return Table1Stats(cfg, 2000) }},
		{"AblationSwitchless", func() (any, error) { return AblationSwitchless(cfg) }},
		{"AblationSplit", func() (any, error) { return AblationSplit(cfg) }},
		{"AblationCacheAlign", func() (any, error) { return AblationCacheAlign(cfg) }},
		{"AblationHorizontal", func() (any, error) { return AblationHorizontal(cfg, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			first, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			second, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(reflect.ValueOf(first), reflect.ValueOf(second)) {
				t.Errorf("two runs differ:\n%+v\n%+v", first, second)
			}
		})
	}
}

// sameBits reports whether a and b hold the same values, every float
// compared by its bits.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !sameBits(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func TestFigure6Shape(t *testing.T) {
	rows, err := Figure6(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := make(map[string]bool)
	for _, spec := range workload.Table1() {
		names[spec.Name] = true
	}
	last := rows[len(rows)-1]
	for name := range names {
		v, ok := last.Micros[name]
		if !ok || v <= 0 || math.IsNaN(v) {
			t.Fatalf("workload %s missing or invalid: %v", name, v)
		}
	}
	// The wide-attribute workloads must be slower than the
	// equality-only original workload (the Figure 6 ordering).
	if last.Micros["e80a4"] <= last.Micros["e100a1"] {
		t.Errorf("e80a4 (%f) not slower than e100a1 (%f)",
			last.Micros["e80a4"], last.Micros["e100a1"])
	}
}

func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(smallConfig(), "e80a1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OutASPE <= 0 || r.InAES <= 0 || r.OutAES <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		// ASPE must lose to SCBR — the paper's headline comparison.
		if r.OutASPE < r.OutAES {
			t.Errorf("ASPE faster than SCBR at %d subs: %+v", r.Subs, r)
		}
		if r.MissRate < 0 || r.MissRate > 1 {
			t.Fatalf("invalid miss rate: %+v", r)
		}
	}
	// The ASPE gap widens with database size (ASPE grows linearly,
	// SCBR prunes).
	first, last := rows[0], rows[len(rows)-1]
	if last.OutASPE/last.OutAES < first.OutASPE/first.OutAES {
		t.Logf("warning: ASPE gap did not widen (%f→%f)",
			first.OutASPE/first.OutAES, last.OutASPE/last.OutAES)
	}
}

func TestFigure7UnknownWorkload(t *testing.T) {
	if _, err := Figure7(smallConfig(), "bogus"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := smallConfig()
	rows, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cfg.Fig8Subs/cfg.Fig8Step {
		t.Fatalf("rows = %d", len(rows))
	}
	// Early windows fit in the EPC: ratio near 1. Late windows page:
	// ratio well above 1, fault ratio large.
	first, last := rows[0], rows[len(rows)-1]
	if first.TimeRatio > 3 {
		t.Errorf("pre-EPC ratio too high: %+v", first)
	}
	if last.TimeRatio < 3 {
		t.Errorf("post-EPC ratio too low: %+v (EPC=%d bytes, DB=%.1f MB)",
			last, cfg.EPCBytes, last.DBMB)
	}
	if last.FaultRatio < 10 {
		t.Errorf("post-EPC fault ratio too low: %+v", last)
	}
	// DB size grows monotonically.
	for i := 1; i < len(rows); i++ {
		if rows[i].DBMB < rows[i-1].DBMB {
			t.Fatalf("DB shrank: %+v -> %+v", rows[i-1], rows[i])
		}
	}
}

func TestTable1Stats(t *testing.T) {
	cfg := smallConfig()
	rows, err := Table1Stats(cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, c := range r.Spec.EqMix {
			got := r.Mix.EqFrac[c.NumEq]
			if math.Abs(got-c.Frac) > 0.05 {
				t.Errorf("%s: realised %d-eq fraction %f, spec %f",
					r.Name, c.NumEq, got, c.Frac)
			}
		}
		wantMin, wantMax := 8*r.Spec.AttrFactor, 11*r.Spec.AttrFactor
		if r.MinAttrs < wantMin || r.MaxAttrs > wantMax {
			t.Errorf("%s: attrs %d–%d outside %d–%d", r.Name, r.MinAttrs, r.MaxAttrs, wantMin, wantMax)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Sizes = nil
	if _, err := Figure5(cfg); err == nil {
		t.Fatal("empty sizes accepted")
	}
	cfg = smallConfig()
	cfg.Sizes = []int{100, 100}
	if _, err := Figure5(cfg); err == nil {
		t.Fatal("non-increasing sizes accepted")
	}
	cfg = smallConfig()
	cfg.Fig8Step = 0
	if _, err := Figure8(cfg); err == nil {
		t.Fatal("zero step accepted")
	}
}

// TestForestShapesExplainFigure6 validates the paper's explanation of
// the workload ordering: equality-only workloads "form deeper
// containment trees", while ×4-attribute workloads "yield indexes with
// more roots and shallow trees" (§4). Both engines run un-sharded so
// root counts are comparable to the paper's.
func TestForestShapesExplainFigure6(t *testing.T) {
	cfg := smallConfig()
	rt, err := newRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func(name string) core.ForestShape {
		spec, err := workload.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := core.NewEngine(simmem.NewPlainAccessor(cfg.Cost), pubsub.NewSchema(),
			core.Options{DisableSharding: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range gen.Subscriptions(3000) {
			if _, err := engine.Register(s, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		return engine.Shape()
	}
	deep := build("e100a1")
	shallow := build("e80a4")
	if deep.MaxDepth <= shallow.MaxDepth {
		t.Errorf("e100a1 depth %d not deeper than e80a4 depth %d", deep.MaxDepth, shallow.MaxDepth)
	}
	if shallow.Roots <= deep.Roots {
		t.Errorf("e80a4 roots %d not more numerous than e100a1 roots %d", shallow.Roots, deep.Roots)
	}
	t.Logf("e100a1: roots=%d maxDepth=%d; e80a4: roots=%d maxDepth=%d",
		deep.Roots, deep.MaxDepth, shallow.Roots, shallow.MaxDepth)
}
