// Package loadgen is the production-shaped load harness behind
// cmd/scbr-loadgen: it stands up live in-process topologies
// (partitions × scheme × federation × overflow policy, via
// internal/deploy), registers zipf-distributed subscription
// populations through the bulk-registration path, drives sustained
// multi-goroutine publish storms with PublishBatch, flash-crowd
// ramps, and mobile-style reconnect churn over the resumable delivery
// path, and fails the run if any delivery is neither received nor
// reported as a gap. The self-describing JSON artifact also carries
// throughput and HDR-histogram latency percentiles; they are one run's
// smoke, not a claim — the numbers a change is judged by come from
// benchmark/ (docs/benchmarks.md has the harness table).
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"scbr/internal/scheme"

	"scbr/internal/broker"
)

// Scenario is one named, declarative sweep: a population and traffic
// shape crossed with a deployment matrix. Every (partitions × scheme ×
// routers) combination becomes one cell; combinations the scheme
// cannot form (aspe × federated — no federation-digest support) are
// recorded as explicitly skipped, never silently dropped.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed makes the whole run deterministic: population, event
	// stream, and churn schedule all derive from it.
	Seed int64 `json:"seed"`

	// Subscribers is the zipf filler population per cell: subscription
	// count registered through the bulk path, owned by a client that
	// never listens — matching load without delivery fan-out.
	Subscribers int `json:"subscribers"`
	// Measured is the number of resumable, match-everything listeners
	// whose deliveries are counted and latency-stamped.
	Measured int `json:"measured"`
	// ZipfS is the population skew exponent (the paper uses s = 1).
	ZipfS float64 `json:"zipf_s"`
	// Symbols is the symbol universe the zipf ranks map onto.
	Symbols int `json:"symbols"`

	// Events is the steady-phase publication count per cell.
	Events int `json:"events"`
	// Publishers is the number of concurrent publishing goroutines.
	// They share the deployment's one provisioned publisher identity —
	// the paper's model is a single service provider — so this scales
	// wire/batch concurrency, not provisioning.
	Publishers int `json:"publishers"`
	// BatchSize is the PublishBatch granularity of the storm phases.
	BatchSize int `json:"batch_size"`
	// FlashEvents, when non-zero, adds a flash-crowd phase: that many
	// events published as fast as possible in maximal batches.
	FlashEvents int `json:"flash_events,omitempty"`
	// ChurnCycles, when non-zero, adds a reconnect-churn phase: each
	// cycle severs every measured listener's delivery connection,
	// publishes ChurnEvents while they are away, then resumes them —
	// the mobile reconnect story, exercising replay rings and gap
	// accounting under load.
	ChurnCycles int `json:"churn_cycles,omitempty"`
	// ChurnEvents is how many events each churn cycle publishes while
	// the listeners are detached (default: BatchSize).
	ChurnEvents int `json:"churn_events,omitempty"`
	// RepartitionCycles, when non-zero, adds a repartition-churn phase:
	// each cycle resizes every router's matcher-slice fleet online
	// (Router.Repartition) while RepartitionEvents are published into
	// the live migration, asserting delivered + gaps == expected across
	// the move — the elastic-data-plane story.
	RepartitionCycles int `json:"repartition_cycles,omitempty"`
	// RepartitionTo lists the slice counts the cycles rotate through
	// (cycle i resizes to RepartitionTo[i mod len]); required when
	// RepartitionCycles > 0, each in [1,256].
	RepartitionTo []int `json:"repartition_to,omitempty"`
	// RepartitionEvents is how many events each repartition cycle
	// publishes concurrently with the resize (default: BatchSize).
	RepartitionEvents int `json:"repartition_events,omitempty"`

	// Partitions, Schemes, and Routers span the deployment matrix.
	// Routers: 1 = single router, n > 1 = a federated chain of n.
	// A Partitions entry of 0 means "planner-sized": the cell's slice
	// count comes from deploy.Plan (the scheme's footprint model under
	// PlanEPCBudget) instead of being fixed; requires PlanEPCBudget.
	Partitions []int    `json:"partitions"`
	Schemes    []string `json:"schemes"`
	Routers    []int    `json:"routers"`
	// Overflow is the slow-consumer policy every cell runs under
	// (empty = drop-oldest).
	Overflow string `json:"overflow,omitempty"`

	// SchemeScale multiplies Subscribers and Events for named schemes,
	// bounding super-linear matchers (aspe is O(subs·d²) per event) so
	// one sweep can cross cheap and expensive schemes. Applied scales
	// are recorded in the cell results — no silent caps.
	SchemeScale map[string]float64 `json:"scheme_scale,omitempty"`
	// FederationScale multiplies Subscribers and Events for cells with
	// more than one router (digest propagation and forwarded delivery
	// make federated cells inherently heavier). Zero means 1.
	FederationScale float64 `json:"federation_scale,omitempty"`

	// PlanEPCBudget is the per-router EPC budget (bytes) for
	// planner-sized cells (Partitions entry 0): the deployment planner
	// sizes each router's slice count so the cell's subscription volume
	// fits the scheme's footprint model under this budget, and the cell
	// fails up front if it cannot.
	PlanEPCBudget uint64 `json:"plan_epc_budget,omitempty"`
}

// Cell is one resolved point of a scenario's deployment matrix.
type Cell struct {
	Partitions  int
	Scheme      string
	Routers     int
	Subscribers int
	Events      int
	// Scale is the population multiplier applied (scheme × federation).
	Scale float64
	// Skip is non-empty when the combination cannot be deployed; the
	// cell is reported with this reason instead of run.
	Skip string
}

// Validate rejects malformed scenarios with a descriptive error.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadgen: scenario needs a name")
	}
	if s.Subscribers <= 0 {
		return fmt.Errorf("loadgen: scenario %q: subscribers must be positive, got %d", s.Name, s.Subscribers)
	}
	if s.Measured <= 0 {
		return fmt.Errorf("loadgen: scenario %q: measured must be positive, got %d", s.Name, s.Measured)
	}
	if s.ZipfS <= 0 {
		return fmt.Errorf("loadgen: scenario %q: zipf_s must be positive, got %v", s.Name, s.ZipfS)
	}
	if s.Symbols <= 0 {
		return fmt.Errorf("loadgen: scenario %q: symbols must be positive, got %d", s.Name, s.Symbols)
	}
	if s.Events <= 0 {
		return fmt.Errorf("loadgen: scenario %q: events must be positive, got %d", s.Name, s.Events)
	}
	if s.Publishers <= 0 {
		return fmt.Errorf("loadgen: scenario %q: publishers must be positive, got %d", s.Name, s.Publishers)
	}
	if s.BatchSize <= 0 {
		return fmt.Errorf("loadgen: scenario %q: batch_size must be positive, got %d", s.Name, s.BatchSize)
	}
	if s.FlashEvents < 0 || s.ChurnCycles < 0 || s.ChurnEvents < 0 || s.RepartitionCycles < 0 || s.RepartitionEvents < 0 {
		return fmt.Errorf("loadgen: scenario %q: phase counts must not be negative", s.Name)
	}
	if s.RepartitionCycles > 0 && len(s.RepartitionTo) == 0 {
		return fmt.Errorf("loadgen: scenario %q: repartition_cycles needs repartition_to targets", s.Name)
	}
	for _, k := range s.RepartitionTo {
		if k < 1 || k > 256 {
			return fmt.Errorf("loadgen: scenario %q: repartition_to %d out of range [1,256]", s.Name, k)
		}
	}
	if len(s.Partitions) == 0 {
		return fmt.Errorf("loadgen: scenario %q: partitions sweep is empty", s.Name)
	}
	for _, k := range s.Partitions {
		if k == 0 {
			if s.PlanEPCBudget == 0 {
				return fmt.Errorf("loadgen: scenario %q: partitions 0 means planner-sized and needs plan_epc_budget", s.Name)
			}
			continue
		}
		if k < 1 || k > 256 {
			return fmt.Errorf("loadgen: scenario %q: partitions %d out of range [1,256] (0 = planner-sized)", s.Name, k)
		}
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("loadgen: scenario %q: schemes sweep is empty", s.Name)
	}
	for _, name := range s.Schemes {
		if _, err := scheme.Lookup(name); err != nil {
			return fmt.Errorf("loadgen: scenario %q: %w", s.Name, err)
		}
	}
	if len(s.Routers) == 0 {
		return fmt.Errorf("loadgen: scenario %q: routers sweep is empty", s.Name)
	}
	for _, n := range s.Routers {
		if n < 1 || n > 16 {
			return fmt.Errorf("loadgen: scenario %q: routers %d out of range [1,16]", s.Name, n)
		}
	}
	if _, err := broker.ParseOverflowPolicy(s.Overflow); err != nil {
		return fmt.Errorf("loadgen: scenario %q: %w", s.Name, err)
	}
	for name, f := range s.SchemeScale {
		if _, err := scheme.Lookup(name); err != nil {
			return fmt.Errorf("loadgen: scenario %q: scheme_scale: %w", s.Name, err)
		}
		if f <= 0 || f > 1 {
			return fmt.Errorf("loadgen: scenario %q: scheme_scale[%s] must be in (0,1], got %v", s.Name, name, f)
		}
	}
	if s.FederationScale < 0 || s.FederationScale > 1 {
		return fmt.Errorf("loadgen: scenario %q: federation_scale must be in (0,1], got %v", s.Name, s.FederationScale)
	}
	return nil
}

// Cells expands the scenario's deployment matrix in deterministic
// order (scheme, then partitions, then routers), resolving per-cell
// population scales and marking undeployable combinations as skipped.
func (s *Scenario) Cells() []Cell {
	var out []Cell
	for _, schemeName := range s.Schemes {
		backend, err := scheme.Lookup(schemeName)
		if err != nil {
			continue // Validate already rejected unknown schemes
		}
		for _, k := range s.Partitions {
			for _, n := range s.Routers {
				c := Cell{Partitions: k, Scheme: backend.Name, Routers: n, Scale: 1}
				if f, ok := s.SchemeScale[backend.Name]; ok {
					c.Scale *= f
				}
				if n > 1 {
					if !backend.Caps.FederationDigests {
						c.Skip = fmt.Sprintf("scheme %q cannot form overlay links (no federation-digest support)", backend.Name)
						out = append(out, c)
						continue
					}
					if s.FederationScale != 0 {
						c.Scale *= s.FederationScale
					}
				}
				c.Subscribers = scaled(s.Subscribers, c.Scale)
				c.Events = scaled(s.Events, c.Scale)
				out = append(out, c)
			}
		}
	}
	return out
}

// scaled applies a population multiplier, keeping at least 1.
func scaled(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// churnEvents resolves the per-cycle detached-phase event count.
func (s *Scenario) churnEvents() int {
	if s.ChurnEvents > 0 {
		return s.ChurnEvents
	}
	return s.BatchSize
}

// repartitionEvents resolves the per-cycle mid-migration event count.
func (s *Scenario) repartitionEvents() int {
	if s.RepartitionEvents > 0 {
		return s.RepartitionEvents
	}
	return s.BatchSize
}

// ParseScenario decodes and validates one scenario from JSON. Unknown
// fields are rejected — a typoed knob must fail loudly, not silently
// run the defaults.
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("loadgen: decoding scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// builtins is the named scenario table. "ci" is the scaled-down
// per-PR smoke run (thousands of subscriptions, seconds of traffic);
// "smoke" is the full acceptance sweep, run by hand (≥100k
// subscriptions, the full {1,4} × {sgx-plain, aspe} × {1,2-router}
// matrix, flash and churn phases).
var builtins = map[string]*Scenario{
	"ci": {
		Name:              "ci",
		Description:       "scaled-down per-PR smoke: thousands of subs, seconds of traffic",
		Seed:              61,
		Subscribers:       2_000,
		Measured:          2,
		ZipfS:             1,
		Symbols:           100,
		Events:            600,
		Publishers:        2,
		BatchSize:         50,
		FlashEvents:       200,
		ChurnCycles:       2,
		ChurnEvents:       100,
		RepartitionCycles: 2,
		RepartitionTo:     []int{2, 4},
		RepartitionEvents: 100,
		// The trailing 0 is the EPC-budgeted planner cell: partition
		// counts come from deploy.Plan under an 8 MB per-router budget,
		// so the smoke job exercises the planning path end to end.
		Partitions:      []int{1, 4, 0},
		Schemes:         []string{scheme.Plain, scheme.ASPE},
		Routers:         []int{1, 2},
		SchemeScale:     map[string]float64{scheme.ASPE: 0.25},
		FederationScale: 0.5,
		PlanEPCBudget:   8 << 20,
	},
	"ci-batch": {
		Name:        "ci-batch",
		Description: "batch-heavy per-PR smoke: few jumbo PublishBatch frames drive the batch-first hot path",
		Seed:        73,
		Subscribers: 2_000,
		Measured:    2,
		ZipfS:       1,
		Symbols:     100,
		Events:      1_200,
		Publishers:  2,
		// The point of the cell: publication traffic arrives as a
		// handful of 400-event batches per publisher, so one ring
		// pass / store pass carries hundreds of events and the
		// per-event amortisation dominates the throughput number.
		BatchSize:   400,
		FlashEvents: 400,
		Partitions:  []int{1, 4},
		Schemes:     []string{scheme.Plain},
		Routers:     []int{1},
	},
	"smoke": {
		Name:              "smoke",
		Description:       "full acceptance sweep: 100k-subscriber cells, flash crowd, reconnect churn",
		Seed:              67,
		Subscribers:       100_000,
		Measured:          3,
		ZipfS:             1,
		Symbols:           1_000,
		Events:            2_000,
		Publishers:        2,
		BatchSize:         100,
		FlashEvents:       500,
		ChurnCycles:       3,
		ChurnEvents:       200,
		RepartitionCycles: 3,
		RepartitionTo:     []int{2, 8, 4},
		RepartitionEvents: 200,
		Partitions:        []int{1, 4},
		Schemes:           []string{scheme.Plain, scheme.ASPE},
		Routers:           []int{1, 2},
		SchemeScale:       map[string]float64{scheme.ASPE: 0.02},
		FederationScale:   0.1,
	},
}

// Builtin returns a copy of a named builtin scenario.
func Builtin(name string) (*Scenario, error) {
	s, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("loadgen: unknown scenario %q (have %v)", name, BuiltinNames())
	}
	cp := *s
	return &cp, nil
}

// BuiltinNames lists the builtin scenarios, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
