// The benchmark's own input generator. It follows the same law as
// loadgen.Population — 1,000 symbols with zipf (s = 1) popularity,
// three rotating subscription shapes — but shares no code with it, so
// a later edit to internal/loadgen cannot move the benchmark's inputs.
// Everything here is a pure function of the seed; the program under
// test only ever sees the specs and events produced.

package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"scbr/internal/pubsub"
	"scbr/internal/scheme"
)

const (
	attrMarker = "lg"
	attrSymbol = "symbol"
	attrPrice  = "price"
	attrVolume = "volume"

	numSymbols   = 1000
	zipfExponent = 1.0
	priceDomain  = 100.0
	volumeDomain = 1_000_000

	// The selective probe subscription held by the measured listener:
	// a closed price band both schemes can express, matching 40 % of
	// the uniformly priced events.
	probeLo = 20.0
	probeHi = 60.0
)

// schemeOptions fixes the attribute universe and scales ASPE encodes
// over (sgx-plain ignores them).
func schemeOptions(seed int64) []scheme.Option {
	return []scheme.Option{
		scheme.WithAttrs(attrMarker, attrSymbol, attrPrice, attrVolume),
		scheme.WithSeed(seed),
		scheme.WithScale(attrMarker, 4),
		scheme.WithScale(attrPrice, priceDomain),
		scheme.WithScale(attrVolume, volumeDomain),
	}
}

// zipf samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s through an
// explicit CDF (math/rand's Zipf cannot do s = 1).
type zipf struct{ cdf []float64 }

func newZipf(s float64, n int) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// symbolNames is the fixed symbol table, so drawing an event allocates
// no string.
var symbolNames = func() []string {
	names := make([]string, numSymbols)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i)
	}
	return names
}()

// sub is the generator's own form of one subscription. The oracle
// evaluates this form, never the program's decoding of the spec.
type sub struct {
	marker   bool // lg between 0 and 2: matches every generated event
	symbol   int  // symbol equality, -1 for none
	hasPrice bool
	priceLo  float64
	priceHi  float64
	hasVol   bool
	volLo    int64
}

func (s sub) spec() pubsub.SubscriptionSpec {
	var ps []pubsub.Predicate
	if s.marker {
		ps = append(ps, pubsub.Predicate{Attr: attrMarker, Op: pubsub.OpBetween, Value: pubsub.Int(0), Hi: pubsub.Int(2)})
	}
	if s.symbol >= 0 {
		ps = append(ps, pubsub.Predicate{Attr: attrSymbol, Op: pubsub.OpEq, Value: pubsub.Str(symbolNames[s.symbol])})
	}
	if s.hasPrice {
		ps = append(ps, pubsub.Predicate{Attr: attrPrice, Op: pubsub.OpBetween, Value: pubsub.Float(s.priceLo), Hi: pubsub.Float(s.priceHi)})
	}
	if s.hasVol {
		ps = append(ps, pubsub.Predicate{Attr: attrVolume, Op: pubsub.OpBetween, Value: pubsub.Int(s.volLo), Hi: pubsub.Int(volumeDomain)})
	}
	return pubsub.SubscriptionSpec{Predicates: ps}
}

// matches is the brute-force evaluator.
func (s sub) matches(e *event) bool {
	if s.symbol >= 0 && s.symbol != e.symbol {
		return false
	}
	if s.hasPrice && (e.price < s.priceLo || e.price > s.priceHi) {
		return false
	}
	if s.hasVol && e.volume < s.volLo {
		return false
	}
	return true
}

// nearBound reports whether e sits within eps (in scaled units) of one
// of s's numeric bounds — where ASPE's sign test may legitimately fall
// on either side.
func (s sub) nearBound(e *event, eps float64) bool {
	if s.hasPrice && (math.Abs(e.price-s.priceLo) < eps*priceDomain || math.Abs(e.price-s.priceHi) < eps*priceDomain) {
		return true
	}
	return s.hasVol && math.Abs(float64(e.volume-s.volLo)) < eps*volumeDomain
}

var (
	matchAllSub = sub{marker: true, symbol: -1}
	probeSub    = sub{symbol: -1, hasPrice: true, priceLo: probeLo, priceHi: probeHi}
)

// subSource draws subscriptions: symbol equality, price band, symbol +
// volume band, in rotation.
type subSource struct {
	rng *rand.Rand
	z   *zipf
	n   int
}

func newSubSource(seed int64) *subSource {
	return &subSource{rng: rand.New(rand.NewSource(seed)), z: newZipf(zipfExponent, numSymbols)}
}

func (g *subSource) next() sub {
	sym := g.z.draw(g.rng)
	shape := g.n % 3
	g.n++
	switch shape {
	case 0:
		return sub{symbol: sym}
	case 1:
		lo := g.rng.Float64() * (priceDomain - 10)
		return sub{symbol: -1, hasPrice: true, priceLo: lo, priceHi: lo + 10}
	default:
		return sub{symbol: sym, hasVol: true, volLo: int64(g.rng.Intn(volumeDomain / 2))}
	}
}

func (g *subSource) take(n int) []sub {
	out := make([]sub, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func specsOf(subs []sub) []pubsub.SubscriptionSpec {
	out := make([]pubsub.SubscriptionSpec, len(subs))
	for i, s := range subs {
		out[i] = s.spec()
	}
	return out
}

// Seed offsets: the filler database, the event stream and the churn
// subscriptions are decorrelated but all reproducible from one seed.
func populationSeed(seed int64) int64 { return seed }
func streamSeed(seed int64) int64     { return seed + 1 }
func churnSeed(seed int64) int64      { return seed + 2 }

// event is one generated publication header.
type event struct {
	symbol int
	price  float64
	volume int64
}

// eventStream draws headers whose symbol popularity follows the same
// zipf law as the population.
type eventStream struct {
	rng *rand.Rand
	z   *zipf
}

func newEventStream(seed int64) *eventStream {
	return &eventStream{rng: rand.New(rand.NewSource(streamSeed(seed))), z: newZipf(zipfExponent, numSymbols)}
}

func (es *eventStream) next() event {
	return event{
		symbol: es.z.draw(es.rng),
		price:  es.rng.Float64() * priceDomain,
		volume: int64(es.rng.Intn(volumeDomain)),
	}
}

// header writes e into a reusable spec (dst.Attrs is reused, so a
// steady publisher allocates nothing here).
func (e *event) header(dst *pubsub.EventSpec) {
	dst.Attrs = append(dst.Attrs[:0],
		pubsub.NamedValue{Name: attrMarker, Value: pubsub.Int(1)},
		pubsub.NamedValue{Name: attrSymbol, Value: pubsub.Str(symbolNames[e.symbol])},
		pubsub.NamedValue{Name: attrPrice, Value: pubsub.Float(e.price)},
		pubsub.NamedValue{Name: attrVolume, Value: pubsub.Int(e.volume)},
	)
}

// Payload layout: seq(8) sendNanos(8) flags(1) then a pad pattern that
// is a function of seq, so the oracle can regenerate the exact bytes.
// The payload is sealed under the group key the router never holds, so
// the flags are a side channel from the generator to the oracle that
// the program under test cannot read.
const (
	payloadHeader = 17

	flagLastOfCall = 1 << 0 // last event of its Publish/PublishBatch call: returns a window token
	flagProbe      = 1 << 1 // the brute-force evaluator says the probe subscription matches
	// flagProbeBoundary: the event sits within boundaryEps of a probe
	// bound, where ASPE may answer either way.
	flagProbeBoundary = 1 << 2
)

func fillPayload(dst []byte, seq uint64, sendNanos int64, flags byte) {
	binary.LittleEndian.PutUint64(dst[0:8], seq)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(sendNanos))
	dst[16] = flags
	for i := payloadHeader; i < len(dst); i++ {
		dst[i] = byte(seq*31 + uint64(i))
	}
}

func payloadPadOK(p []byte, seq uint64) bool {
	for i := payloadHeader; i < len(p); i++ {
		if p[i] != byte(seq*31+uint64(i)) {
			return false
		}
	}
	return true
}
