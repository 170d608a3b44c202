package scheme

import (
	"math/rand"
	"testing"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// buildSlice constructs a configured codec/slice pair for one backend.
func buildSlice(t *testing.T, name string, opts ...Option) (Codec, Slice) {
	t.Helper()
	backend, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := backend.NewCodec(Resolve(opts))
	if err != nil {
		t.Fatal(err)
	}
	slice, err := backend.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), pubsub.NewSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params, err := codec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if err := slice.Configure(params); err != nil {
		t.Fatal(err)
	}
	return codec, slice
}

// matchRows matches encs in one MatchRecords call and expands the
// records into the rows of out, as the hub's MatchEncodedBatchIn does.
func matchRows(slice Slice, encs [][]byte, out [][]core.MatchResult) error {
	recs, err := slice.MatchRecords(encs, nil)
	core.AppendRows(out, recs)
	return err
}

// matchOne matches one header as a batch of one.
func matchOne(t *testing.T, slice Slice, enc []byte) []core.MatchResult {
	t.Helper()
	out := make([][]core.MatchResult, 1)
	if err := matchRows(slice, [][]byte{enc}, out); err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// matchBatchEquivalence is the batch-matching correctness property:
// MatchRecords names, for every item, exactly what a batch of
// that item alone appends — same IDs, same order — with undecodable
// items contributing nothing, and it respects pre-existing content in
// the result rows.
func matchBatchEquivalence(t *testing.T, name string, opts ...Option) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	codec, slice := buildSlice(t, name, opts...)

	symbols := []string{"HAL", "IBM", "APL"}
	for i := 0; i < 40; i++ {
		var preds []pubsub.Predicate
		if rng.Intn(3) > 0 { // a third of the population has no equality → no Bloom prefilter entry
			preds = append(preds, pubsub.Predicate{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str(symbols[rng.Intn(len(symbols))])})
		}
		op := pubsub.OpLt
		if rng.Intn(2) == 0 {
			op = pubsub.OpGt
		}
		preds = append(preds, pubsub.Predicate{Attr: "price", Op: op, Value: pubsub.Float(float64(rng.Intn(90)))})
		enc, err := codec.EncodeSubscription(pubsub.SubscriptionSpec{Predicates: preds})
		if err != nil {
			t.Fatal(err)
		}
		if err := slice.RegisterEncodedAssigned(enc, uint32(100+i), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}

	var encs [][]byte
	for i := 0; i < 25; i++ {
		ev := pubsub.EventSpec{Attrs: []pubsub.NamedValue{
			{Name: "symbol", Value: pubsub.Str(symbols[rng.Intn(len(symbols))])},
			{Name: "price", Value: pubsub.Float(float64(rng.Intn(100)))},
		}}
		blob, err := codec.EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, blob)
	}
	// Undecodable items must contribute nothing, alone or in a batch.
	encs = append(encs, []byte{}, []byte("garbage"), nil)

	want := make([][]core.MatchResult, len(encs))
	for i, enc := range encs {
		want[i] = matchOne(t, slice, enc)
	}

	// Rows carry pre-existing sentinel content the batch must append
	// after, mirroring the hub's append contract.
	sentinel := core.MatchResult{SubID: 999999, ClientRef: 77}
	out := make([][]core.MatchResult, len(encs))
	for i := range out {
		out[i] = []core.MatchResult{sentinel}
	}
	if err := matchRows(slice, encs, out); err != nil {
		t.Fatalf("MatchRecords: %v", err)
	}
	for i := range encs {
		if len(out[i]) == 0 || out[i][0] != sentinel {
			t.Fatalf("item %d: batch overwrote pre-existing row content: %v", i, out[i])
		}
		got := out[i][1:]
		if len(got) != len(want[i]) {
			t.Fatalf("item %d: batch matched %d, alone %d (%v vs %v)", i, len(got), len(want[i]), got, want[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("item %d result %d: batch %v, alone %v", i, j, got[j], want[i][j])
			}
		}
	}
}

func TestPlainMatchBatchEquivalence(t *testing.T) { matchBatchEquivalence(t, Plain) }

func TestASPEMatchBatchEquivalence(t *testing.T) {
	matchBatchEquivalence(t, ASPE, WithAttrs("symbol", "price"), WithSeed(13), WithScale("price", 100))
}

// TestMatchBatchErrors pins the whole-store failure contract: the
// batch call errors (rather than silently matching nothing) exactly
// when every item would fail identically.
func TestMatchBatchErrors(t *testing.T) {
	codec, slice := buildSlice(t, ASPE, WithAttrs("symbol", "price"), WithSeed(13))
	blob, err := codec.EncodeEvent(pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "price", Value: pubsub.Float(10)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slice.MatchRecords([][]byte{blob}, nil); err != nil {
		t.Fatalf("a configured store failed the batch: %v", err)
	}
	// An unconfigured store fails the whole batch.
	backend, err := Lookup(ASPE)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := backend.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.MatchRecords([][]byte{blob}, nil); err == nil {
		t.Fatal("unconfigured store matched a batch")
	}
}
