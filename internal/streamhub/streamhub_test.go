package streamhub

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/simmem"
)

// The tests drive the hub the way the router does: subscriptions and
// headers in the plain scheme's wire encoding, hash placement by
// ShardForKey, and a caller-run loop over the slices for matching.

func plainCodec(t testing.TB) scheme.Codec {
	t.Helper()
	codec, err := scheme.NewCodec(scheme.Plain)
	if err != nil {
		t.Fatal(err)
	}
	return codec
}

func newPlainSlice(t testing.TB, acc simmem.Accessor, schema *pubsub.Schema) scheme.Slice {
	t.Helper()
	backend, err := scheme.Lookup(scheme.Plain)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := backend.NewSlice(acc, schema, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return slice
}

// newPlainHub builds a hub of k plain slices over plain memory.
func newPlainHub(t testing.TB, k int) *Hub {
	t.Helper()
	schema := pubsub.NewSchema()
	slices := make([]scheme.Slice, k)
	for i := range slices {
		slices[i] = newPlainSlice(t, simmem.NewPlainAccessor(simmem.DefaultCost()), schema)
	}
	hub, err := NewFromSlices(schema, slices)
	if err != nil {
		t.Fatal(err)
	}
	return hub
}

// register hash-places one subscription like a router connection does
// (key: the client reference and the encoding) and returns its hub ID
// and the slice it landed on.
func register(t testing.TB, hub *Hub, spec pubsub.SubscriptionSpec, clientRef uint32) (id uint64, target int, enc []byte) {
	t.Helper()
	enc, err := plainCodec(t).EncodeSubscription(spec)
	if err != nil {
		t.Fatal(err)
	}
	shard := hub.ShardForKey(binary.BigEndian.AppendUint32(nil, clientRef), enc)
	target = hub.SliceForShard(shard)
	if id, err = hub.RegisterEncodedAt(shard, target, enc, clientRef); err != nil {
		t.Fatal(err)
	}
	return id, target, enc
}

// sliceCounts reads each slice's live subscription count and their sum.
// The hub reads no slice itself; these tests own every slice.
func sliceCounts(hub *Hub) (per []int, total int) {
	for i := 0; i < hub.Partitions(); i++ {
		n := hub.Slice(i).Stats().Subscriptions
		per = append(per, n)
		total += n
	}
	return per, total
}

func encodeEvent(t testing.TB, ev pubsub.EventSpec) []byte {
	t.Helper()
	enc, err := plainCodec(t).EncodeEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// matchIn matches one encoded header against slice i.
func matchIn(t testing.TB, hub *Hub, i int, enc []byte) []core.MatchResult {
	t.Helper()
	out := make([][]core.MatchResult, 1)
	if err := hub.MatchEncodedBatchIn(i, [][]byte{enc}, out); err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// matchAll matches one encoded header against every slice and merges
// the results.
func matchAll(t testing.TB, hub *Hub, enc []byte) []core.MatchResult {
	t.Helper()
	var out []core.MatchResult
	for i := 0; i < hub.Partitions(); i++ {
		out = append(out, matchIn(t, hub, i, enc)...)
	}
	return out
}

func priceAbove(v float64) pubsub.SubscriptionSpec {
	return pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "price", Op: pubsub.OpGt, Value: pubsub.Float(v)},
	}}
}

func priceEvent(v float64) pubsub.EventSpec {
	return pubsub.EventSpec{Attrs: []pubsub.NamedValue{{Name: "price", Value: pubsub.Float(v)}}}
}

var symbols = []string{"HAL", "IBM", "MSFT", "AAPL"}

func randomSpec(rng *rand.Rand) pubsub.SubscriptionSpec {
	var preds []pubsub.Predicate
	if rng.Intn(3) > 0 {
		preds = append(preds, pubsub.Predicate{
			Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str(symbols[rng.Intn(len(symbols))]),
		})
	}
	preds = append(preds, pubsub.Predicate{
		Attr: "price", Op: pubsub.OpLt, Value: pubsub.Float(float64(rng.Intn(100))),
	})
	return pubsub.SubscriptionSpec{Predicates: preds}
}

func randomEvent(rng *rand.Rand) pubsub.EventSpec {
	return pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str(symbols[rng.Intn(len(symbols))])},
		{Name: "price", Value: pubsub.Float(float64(rng.Intn(120)))},
	}}
}

func TestHubEquivalentToSingleEngine(t *testing.T) {
	hub := newPlainHub(t, 4)
	singleSchema := pubsub.NewSchema()
	single, err := core.NewEngine(simmem.NewPlainAccessor(simmem.DefaultCost()), singleSchema, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		spec := randomSpec(rng)
		register(t, hub, spec, uint32(i))
		if _, err := single.Register(spec, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		ev := randomEvent(rng)
		evSingle, err := ev.Intern(singleSchema)
		if err != nil {
			t.Fatal(err)
		}
		a := matchAll(t, hub, encodeEvent(t, ev))
		b, err := single.Match(evSingle)
		if err != nil {
			t.Fatal(err)
		}
		// Same number of matches and the same client refs.
		if len(a) != len(b) {
			t.Fatalf("event %d: hub %d matches, single %d", i, len(a), len(b))
		}
		ra, rb := make([]uint32, len(a)), make([]uint32, len(b))
		for j := range a {
			ra[j] = a[j].ClientRef
			rb[j] = b[j].ClientRef
		}
		sort.Slice(ra, func(x, y int) bool { return ra[x] < ra[y] })
		sort.Slice(rb, func(x, y int) bool { return rb[x] < rb[y] })
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("event %d: hub clients %v, single %v", i, ra, rb)
			}
		}
	}
}

func TestHubBalancesPartitions(t *testing.T) {
	// Hash placement spreads registrations over every slice, and every
	// placed ID is owned by the slice it was placed on — through
	// registration and removal.
	hub := newPlainHub(t, 4)
	const n = 1000
	type placed struct {
		id     uint64
		target int
	}
	var subs []placed
	want := make([]int, hub.Partitions())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		id, target, _ := register(t, hub, randomSpec(rng), uint32(i))
		subs = append(subs, placed{id, target})
		want[target]++
	}
	checkOwners := func(when string, live []placed) {
		t.Helper()
		for _, s := range live {
			if owner, ok := hub.OwnerSlice(s.id); !ok || owner != s.target {
				t.Fatalf("%s: OwnerSlice(%d) = %d,%v, want %d", when, s.id, owner, ok, s.target)
			}
		}
		if per, total := sliceCounts(hub); total != len(live) || !slices.Equal(per, want) {
			t.Fatalf("%s: per-slice counts %v (sum %d), want %v (sum %d)", when, per, total, want, len(live))
		}
	}
	for i, c := range want {
		if c == 0 {
			t.Fatalf("slice %d holds nothing after %d hash-placed registrations (%v)", i, n, want)
		}
	}
	checkOwners("after registration", subs)

	for _, s := range subs[:n/4] {
		if err := hub.UnregisterIn(s.id); err != nil {
			t.Fatal(err)
		}
		if _, ok := hub.OwnerSlice(s.id); ok {
			t.Fatalf("OwnerSlice(%d) still set after UnregisterIn", s.id)
		}
		want[s.target]--
	}
	checkOwners("after unregister", subs[n/4:])
}

func TestHubParallelSpeedup(t *testing.T) {
	// The makespan of a 4-way hub — the slowest slice's simulated cycles
	// per publication — must be well below the total work: that is the
	// point of partitioned matching.
	hub := newPlainHub(t, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		register(t, hub, randomSpec(rng), uint32(i))
	}
	var makespan, total uint64
	for i := 0; i < 50; i++ {
		enc := encodeEvent(t, randomEvent(rng))
		var slowest uint64
		for p := 0; p < hub.Partitions(); p++ {
			meter := hub.Slice(p).Accessor().Meter()
			before := meter.C.Cycles
			matchIn(t, hub, p, enc)
			cycles := meter.C.Cycles - before
			total += cycles
			if cycles > slowest {
				slowest = cycles
			}
		}
		makespan += slowest
	}
	if makespan == 0 || total == 0 {
		t.Fatal("no cycles recorded")
	}
	speedup := float64(total) / float64(makespan)
	if speedup < 1.5 {
		t.Fatalf("speedup = %.2f, want ≥ 1.5 with 4 partitions", speedup)
	}
}

func TestHubUnregister(t *testing.T) {
	hub := newPlainHub(t, 2)
	id, _, _ := register(t, hub, priceAbove(0), 7)
	ev := encodeEvent(t, priceEvent(5))
	got := matchAll(t, hub, ev)
	if len(got) != 1 || got[0].SubID != id {
		t.Fatalf("match = %v, want hub id %d", got, id)
	}
	if err := hub.UnregisterIn(id); err != nil {
		t.Fatal(err)
	}
	if got = matchAll(t, hub, ev); len(got) != 0 {
		t.Fatalf("match after unregister = %v", got)
	}
	if err := hub.UnregisterIn(id); err == nil {
		t.Fatal("double unregister succeeded")
	}
	if per, total := sliceCounts(hub); total != 0 {
		t.Fatalf("per-slice counts = %v", per)
	}
}

func TestHubValidation(t *testing.T) {
	schema := pubsub.NewSchema()
	if _, err := NewFromSlices(schema, nil); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := NewFromSlices(schema, []scheme.Slice{nil}); err == nil {
		t.Fatal("nil slice accepted")
	}
	hub := newPlainHub(t, 1)
	// An empty subscription is refused by the slice, and a refused
	// registration leaves no trace in the slice or the hub.
	enc, err := pubsub.EncodeSubscriptionSpec(pubsub.SubscriptionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{enc, []byte("not a subscription")} {
		if _, err := hub.RegisterEncodedAt(0, 0, bad, 1); err == nil {
			t.Fatalf("encoding %q accepted", bad)
		}
	}
	if per, total := sliceCounts(hub); total != 0 {
		t.Fatalf("per-slice counts = %v", per)
	}
	// Result rows shorter than the batch.
	ev := encodeEvent(t, pubsub.EventSpec{Attrs: []pubsub.NamedValue{{Name: "price", Value: pubsub.Float(1)}}})
	if err := hub.MatchEncodedBatchIn(0, [][]byte{ev, ev}, make([][]core.MatchResult, 1)); err == nil {
		t.Fatal("short result slots accepted")
	}
}

func TestHubDirectSliceAPI(t *testing.T) {
	// The surface the broker's partitioned router drives: hash placement
	// onto virtual shards, shard→slice resolution, direct
	// register/unregister, single slice matching, and ID-addressed
	// re-registration for restore.
	hub := newPlainHub(t, 4)
	enc, err := plainCodec(t).EncodeSubscription(priceAbove(0))
	if err != nil {
		t.Fatal(err)
	}
	shard := hub.ShardForKey([]byte("alice"), []byte("blob-1"))
	if again := hub.ShardForKey([]byte("alice"), []byte("blob-1")); again != shard {
		t.Fatalf("placement not deterministic: %d then %d", shard, again)
	}
	if a, b := hub.ShardForKey([]byte("ab"), []byte("c")), hub.ShardForKey([]byte("a"), []byte("bc")); a == b {
		// Not a hard guarantee for every pair, but these two must not
		// collide by mere concatenation; the separator keeps part
		// boundaries significant.
		t.Logf("note: (ab,c) and (a,bc) hashed to the same shard %d", a)
	}
	target := hub.SliceForShard(shard)
	if target < 0 || target >= hub.Partitions() {
		t.Fatalf("shard %d placed on slice %d of %d", shard, target, hub.Partitions())
	}
	id, err := hub.RegisterEncodedAt(shard, target, enc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ShardOf(id) != shard {
		t.Fatalf("hub ID %d names shard %d, registered for %d", id, ShardOf(id), shard)
	}
	if owner, ok := hub.OwnerSlice(id); !ok || owner != target {
		t.Fatalf("OwnerSlice(%d) = %d,%v, want %d", id, owner, ok, target)
	}
	ev := encodeEvent(t, priceEvent(5))
	got := matchIn(t, hub, target, ev)
	if len(got) != 1 || got[0].SubID != id || got[0].ClientRef != 7 {
		t.Fatalf("slice %d matched %v, want hub id %d for client 7", target, got, id)
	}
	for i := 0; i < hub.Partitions(); i++ {
		if i == target {
			continue
		}
		if other := matchIn(t, hub, i, ev); len(other) != 0 {
			t.Fatalf("slice %d matched %v, want empty", i, other)
		}
	}
	if err := hub.UnregisterIn(id); err != nil {
		t.Fatal(err)
	}
	if err := hub.UnregisterIn(id); err == nil {
		t.Fatal("double UnregisterIn succeeded")
	}
	// Restore lands the subscription back on the slice its shard
	// occupies under the placement map.
	if err := hub.RegisterEncodedAssigned(target, enc, 7, id); err != nil {
		t.Fatal(err)
	}
	if got = matchIn(t, hub, target, ev); len(got) != 1 || got[0].SubID != id {
		t.Fatalf("after restore, slice %d matched %v, want %d", target, got, id)
	}
	if per, total := sliceCounts(hub); total != 1 || per[target] != 1 {
		t.Fatalf("per-slice counts = %v, want 1 on slice %d", per, target)
	}
	bad := composeID(hub.Placement().Shards(), 1)
	if err := hub.RegisterEncodedAssigned(target, enc, 7, bad); err == nil {
		t.Fatal("RegisterEncodedAssigned accepted an out-of-range shard")
	}
	if err := hub.RegisterEncodedAssigned(hub.Partitions(), enc, 7, composeID(shard, 99)); err == nil {
		t.Fatal("RegisterEncodedAssigned accepted an out-of-range slice")
	}
	if _, err := hub.RegisterEncodedAt(hub.Placement().Shards(), target, enc, 7); err == nil {
		t.Fatal("RegisterEncodedAt accepted an out-of-range shard")
	}
	if _, err := hub.RegisterEncodedAt(-1, target, enc, 7); err == nil {
		t.Fatal("RegisterEncodedAt accepted a negative shard")
	}
	if _, err := hub.RegisterEncodedAt(shard, hub.Partitions(), enc, 7); err == nil {
		t.Fatal("RegisterEncodedAt accepted an out-of-range slice")
	}
}

func TestHubElasticResize(t *testing.T) {
	// The resize surface the broker's migration engine drives: AddSlice
	// grows the hub, RegisterEncodedAssigned relocates a subscription under its
	// existing ID, DropCopy sweeps the stale copy, RemoveSlicesFrom
	// refuses while a removed slice still owns subscriptions and
	// succeeds after migration back.
	hub := newPlainHub(t, 2)
	enc, err := plainCodec(t).EncodeSubscription(priceAbove(0))
	if err != nil {
		t.Fatal(err)
	}
	shard := hub.ShardForKey([]byte("mover"))
	src := hub.SliceForShard(shard)
	id, err := hub.RegisterEncodedAt(shard, src, enc, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Grow: a third slice joins the fan-out.
	if err := hub.AddSlice(newPlainSlice(t, simmem.NewPlainAccessor(simmem.DefaultCost()), hub.Schema())); err != nil {
		t.Fatal(err)
	}
	if hub.Partitions() != 3 {
		t.Fatalf("partitions = %d after AddSlice, want 3", hub.Partitions())
	}
	// Migrate the subscription to the new slice under its existing ID.
	if err := hub.RegisterEncodedAssigned(2, enc, 9, id); err != nil {
		t.Fatal(err)
	}
	if owner, ok := hub.OwnerSlice(id); !ok || owner != 2 {
		t.Fatalf("OwnerSlice(%d) = %d,%v after import, want 2", id, owner, ok)
	}
	ev := encodeEvent(t, priceEvent(5))
	got := matchIn(t, hub, 2, ev)
	if len(got) != 1 || got[0].SubID != id || got[0].ClientRef != 9 {
		t.Fatalf("new slice matched %v, want id %d for client 9", got, id)
	}
	// Both copies exist until the sweep; DropCopy on the owner is a
	// refusal, on the source it removes the stale copy.
	hub.DropCopy(2, id)
	if got = matchIn(t, hub, 2, ev); len(got) != 1 {
		t.Fatalf("DropCopy removed the owning copy: %v", got)
	}
	hub.DropCopy(src, id)
	if got = matchIn(t, hub, src, ev); len(got) != 0 {
		t.Fatalf("source still matches %v after DropCopy", got)
	}
	// Shrink refuses while slice 2 owns the subscription.
	if err := hub.RemoveSlicesFrom(2); err == nil {
		t.Fatal("RemoveSlicesFrom dropped a populated slice")
	}
	// Migrate back, sweep, then shrink succeeds.
	if err := hub.RegisterEncodedAssigned(src, enc, 9, id); err != nil {
		t.Fatal(err)
	}
	hub.DropCopy(2, id)
	if err := hub.RemoveSlicesFrom(2); err != nil {
		t.Fatal(err)
	}
	if hub.Partitions() != 2 {
		t.Fatalf("partitions = %d after shrink, want 2", hub.Partitions())
	}
	if got = matchIn(t, hub, src, ev); len(got) != 1 || got[0].SubID != id {
		t.Fatalf("after shrink, source matches %v, want id %d", got, id)
	}
	if err := hub.UnregisterIn(id); err != nil {
		t.Fatal(err)
	}
}

func TestHubPartitionBound(t *testing.T) {
	schema := pubsub.NewSchema()
	slices := make([]scheme.Slice, MaxPartitions+1)
	for i := range slices {
		slices[i] = newPlainSlice(t, simmem.NewPlainAccessor(simmem.DefaultCost()), schema)
	}
	if _, err := NewFromSlices(schema, slices); err == nil {
		t.Fatalf("%d partitions accepted, ID top byte would overflow", len(slices))
	}
	if _, err := NewFromSlices(schema, slices[:MaxPartitions]); err != nil {
		t.Fatalf("%d partitions refused: %v", MaxPartitions, err)
	}
}

func TestHubEnclaveSlices(t *testing.T) {
	// Enclave-backed slices: each partition gets its own enclave, as
	// the replicated key-management deployment of §3.4 would, and the
	// caller enters it around every hub call that touches the store.
	schema := pubsub.NewSchema()
	enclaves := make([]*testEnclave, 2)
	slices := make([]scheme.Slice, len(enclaves))
	for i := range enclaves {
		e, err := newTestEnclave()
		if err != nil {
			t.Fatal(err)
		}
		enclaves[i] = e
		slices[i] = newPlainSlice(t, e.mem, schema)
	}
	hub, err := NewFromSlices(schema, slices)
	if err != nil {
		t.Fatal(err)
	}
	codec := plainCodec(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		enc, err := codec.EncodeSubscription(randomSpec(rng))
		if err != nil {
			t.Fatal(err)
		}
		shard := hub.ShardForKey(enc, []byte{byte(i)})
		target := hub.SliceForShard(shard)
		err = enclaves[target].ecall(func() error {
			_, err := hub.RegisterEncodedAt(shard, target, enc, uint32(i))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ev := encodeEvent(t, randomEvent(rng))
	var cycles uint64
	for i, e := range enclaves {
		before := e.mem.Meter().C.Cycles
		out := make([][]core.MatchResult, 1)
		if err := e.ecall(func() error { return hub.MatchEncodedBatchIn(i, [][]byte{ev}, out) }); err != nil {
			t.Fatal(err)
		}
		cycles += e.mem.Meter().C.Cycles - before
	}
	if cycles == 0 {
		t.Fatal("enclave slices recorded no cycles")
	}
	// Both enclaves saw transitions.
	for i, e := range enclaves {
		if e.transitions() == 0 {
			t.Fatalf("enclave %d saw no ecalls", i)
		}
	}
}
