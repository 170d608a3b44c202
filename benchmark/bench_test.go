package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"scbr/internal/broker"
)

// tinyPlan bounds every pass by event count, so two runs of one seed
// publish exactly the same events and the whole suite stays a smoke
// test.
func tinyPlan() plan {
	long := time.Minute
	return plan{
		calibrate:  20 * time.Millisecond,
		setups:     1,
		warm:       limit{dur: long, events: 128},
		rounds:     2,
		ref:        time.Millisecond,
		rtt:        limit{dur: long, events: 64},
		window:     limit{dur: long, events: 256},
		regSteps:   1,
		live:       limit{dur: long, events: 512},
		open:       200 * time.Millisecond,
		single:     limit{dur: long, events: 256},
		walkEvents: 128,
	}
}

func tiny(w workload) workload {
	if w.fillers > 300 {
		w.fillers = 300
	}
	return w
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func names(ms []metric) map[string]int {
	out := make(map[string]int, len(ms))
	for _, m := range ms {
		out[m.name]++
	}
	return out
}

// TestSuiteEmitsTheManifest runs all four workloads, gated and traced,
// at tiny scale and holds the output to BENCHMARK.json: every metric
// named there is emitted exactly once, under its unit, and nothing
// fails.
func TestSuiteEmitsTheManifest(t *testing.T) {
	t.Parallel()
	man, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantWorkloads := make([]string, 0, len(man.Workloads))
	for _, w := range man.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	gotWorkloads := make([]string, 0, len(workloads))
	for _, w := range workloads {
		gotWorkloads = append(gotWorkloads, w.name)
	}
	if !reflect.DeepEqual(gotWorkloads, wantWorkloads) {
		t.Fatalf("workloads %v, BENCHMARK.json names %v", gotWorkloads, wantWorkloads)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range man.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range man.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	traceDir = t.TempDir()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	check := func(t *testing.T, res *result, want map[string]string) {
		t.Helper()
		if failed := res.v.failed(); failed != 0 || res.attempted == 0 {
			t.Errorf("attempted %d, failed %d: %v\n%v", res.attempted, failed, &res.v, res.notes)
		}
		got := names(res.metrics)
		for name, unit := range want {
			if got[name] != 1 {
				t.Errorf("metric %s emitted %d times, want once", name, got[name])
			}
			for _, m := range res.metrics {
				if m.name == name && m.unit != unit {
					t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.unit, unit)
				}
			}
		}
		for _, m := range res.metrics {
			if _, ok := want[m.name]; !ok {
				t.Errorf("metric %s is not in BENCHMARK.json", m.name)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.name)
			}
		}
	}
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name+"/gated", func(t *testing.T) {
			t.Parallel()
			res, err := runGated(context.Background(), w, 1, tinyPlan())
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, endToEnd)
			for _, m := range res.metrics {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, m.value)
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			t.Parallel()
			res, err := runTraced(context.Background(), w, 1, tinyPlan())
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, perLayer)
			if _, err := os.Stat(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
			if calls, _ := res.get("scrypto.open_header_calls"); w.scheme == "aspe" && calls != 0 || w.scheme != "aspe" && int(calls) != w.partitions {
				t.Errorf("scrypto.open_header_calls = %v with %d partitions under %s", calls, w.partitions, w.scheme)
			}
		})
	}
}

// TestSimulatedCostRepeats: on the synchronous single-slice path the
// simulated cost is a pure function of the inputs, so two runs of one
// seed must agree to the last digit.
func TestSimulatedCostRepeats(t *testing.T) {
	t.Parallel()
	w, _ := workloadByName("pipe")
	var sims [2]float64
	for i := range sims {
		res, err := runGated(context.Background(), w, 7, tinyPlan())
		if err != nil {
			t.Fatal(err)
		}
		sims[i], _ = res.get("sim_us_per_event")
	}
	if sims[0] != sims[1] || sims[0] == 0 {
		t.Fatalf("sim_us_per_event %v then %v under one seed", sims[0], sims[1])
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	draw := func(seed int64) ([]sub, []event) {
		es := newEventStream(seed)
		evs := make([]event, 64)
		for i := range evs {
			evs[i] = es.next()
		}
		return newSubSource(populationSeed(seed)).take(64), evs
	}
	subsA, evsA := draw(1)
	subsB, evsB := draw(1)
	subsC, evsC := draw(2)
	if !reflect.DeepEqual(subsA, subsB) || !reflect.DeepEqual(evsA, evsB) {
		t.Fatal("one seed gave two different inputs")
	}
	if reflect.DeepEqual(subsA, subsC) || reflect.DeepEqual(evsA, evsC) {
		t.Fatal("two seeds gave the same inputs")
	}
}

// TestOracleFlagsReorderAndDrop feeds the checker a stream with one
// pair of deliveries swapped and one delivery missing.
func TestOracleFlagsReorderAndDrop(t *testing.T) {
	const allID, probeID, size = 11, 12, 32
	delivery := func(seq uint64) broker.Delivery {
		p := make([]byte, size)
		fillPayload(p, seq, 0, 0)
		return broker.Delivery{Payload: p, SubIDs: []uint64{allID}}
	}
	feed := func(seqs ...uint64) violations {
		c := newChecker(allID, probeID, size)
		for _, s := range seqs {
			c.observe(delivery(s))
		}
		c.finish(8)
		return c.v
	}
	if v := feed(0, 1, 2, 3, 4, 5, 6, 7); v.failed() != 0 {
		t.Fatalf("clean stream flagged: %v", &v)
	}
	if v := feed(0, 1, 3, 2, 4, 5, 6, 7); v[vOutOfOrder] != 1 || v.failed() != 1 {
		t.Fatalf("swapped deliveries: %v", &v)
	}
	if v := feed(0, 1, 2, 4, 5, 6, 7); v[vNeverDelivered] != 1 || v.failed() != 1 {
		t.Fatalf("dropped delivery: %v", &v)
	}
	if v := feed(0, 1, 2, 3, 4, 5, 6); v[vNeverDelivered] != 1 {
		t.Fatalf("dropped last delivery: %v", &v)
	}
	if v := feed(0, 1, 2, 2, 3, 4, 5, 6, 7); v[vDuplicate] != 1 {
		t.Fatalf("duplicated delivery: %v", &v)
	}
	c := newChecker(allID, probeID, size)
	d := delivery(0)
	d.SubIDs = []uint64{allID, probeID} // the evaluator did not pick this event for the probe
	if c.observe(d); c.v[vWrongMatch] != 1 {
		t.Fatalf("wrong match: %v", &c.v)
	}
}
