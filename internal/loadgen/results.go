package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"scbr/internal/broker"
	"scbr/internal/hdrhist"
)

// HostBaseline pins the run to the machine and build that produced
// it, so a recorded trajectory is comparable across PRs and hosts.
type HostBaseline struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
}

// CaptureHost records the current host baseline.
func CaptureHost(commit string) HostBaseline {
	return HostBaseline{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
	}
}

// LatencySummary is one histogram reduced to the percentiles the
// trajectory tracks. All values are nanoseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	P50    int64   `json:"p50_ns"`
	P95    int64   `json:"p95_ns"`
	P99    int64   `json:"p99_ns"`
	Max    int64   `json:"max_ns"`
	MeanNs float64 `json:"mean_ns"`
}

func summarize(s *hdrhist.Snapshot) LatencySummary {
	return LatencySummary{
		Count:  s.N,
		P50:    s.Quantile(0.50),
		P95:    s.Quantile(0.95),
		P99:    s.Quantile(0.99),
		Max:    s.Max,
		MeanNs: s.Mean(),
	}
}

// CellResult is one deployment cell's measurements.
type CellResult struct {
	Partitions int    `json:"partitions"`
	Scheme     string `json:"scheme"`
	Routers    int    `json:"routers"`
	// Skipped carries the reason a cell was not deployable (e.g. aspe ×
	// federated); all measurement fields are zero for skipped cells.
	Skipped string `json:"skipped,omitempty"`

	// Scale is the population multiplier this cell ran under;
	// Subscribers and Events are the post-scale actuals.
	Scale       float64 `json:"scale"`
	Subscribers int     `json:"subscribers"`
	Measured    int     `json:"measured"`
	Events      int     `json:"events"`

	// RegisterSecs covers bulk-registering the filler population.
	RegisterSecs   float64 `json:"register_secs"`
	RegisterPerSec float64 `json:"register_per_sec"`

	// PublishSecs covers every publish phase (steady + flash + churn),
	// up to the last publish call's return; DrainSecs adds the wait for
	// the last delivery (or reported gap). They time the cell's phases;
	// the harness reports no event rate — benchmark/ measures
	// throughput.
	PublishSecs float64 `json:"publish_secs"`
	DrainSecs   float64 `json:"drain_secs"`

	// Delivery accounting across every measured listener: each event is
	// expected once per listener; Delivered counts unique receipts, Gaps
	// the losses the resume protocol *reported*, Unaccounted whatever
	// neither delivered nor reported — the invariant the harness
	// enforces is Unaccounted == 0 (no silent loss).
	Expected    uint64 `json:"expected"`
	Delivered   uint64 `json:"delivered"`
	Duplicates  uint64 `json:"duplicates"`
	Gaps        uint64 `json:"gaps"`
	Unaccounted uint64 `json:"unaccounted"`
	Resumes     int    `json:"resumes,omitempty"`

	// PlannedPartitions records the slice count deploy.Plan chose for a
	// planner-sized cell (Partitions == 0), with the budget it planned
	// under; both zero for fixed-partition cells.
	PlannedPartitions int    `json:"planned_partitions,omitempty"`
	PlanEPCBudget     uint64 `json:"plan_epc_budget,omitempty"`

	// Repartitions counts completed online resizes of the cell's
	// matcher-slice fleets; MigrationPauseNanos is the worst data-plane
	// flush pause any router observed across them (the time publishes
	// were fenced behind a placement flip).
	Repartitions        int   `json:"repartitions,omitempty"`
	MigrationPauseNanos int64 `json:"migration_pause_nanos,omitempty"`

	// EndToEnd is publish-stamp → client-receipt latency (from payload
	// timestamps); EnqueueWrite is the router-side delivery-queue
	// latency surface added with this harness.
	EndToEnd     LatencySummary `json:"end_to_end"`
	EnqueueWrite LatencySummary `json:"enqueue_write"`

	// Counters is the home router's delivery-snapshot at cell end.
	Counters broker.DeliveryCounters `json:"counters"`
}

// Result is the self-describing run artifact.
type Result struct {
	Harness   string       `json:"harness"`
	Version   int          `json:"version"`
	StartedAt time.Time    `json:"started_at"`
	WallSecs  float64      `json:"wall_secs"`
	Host      HostBaseline `json:"host"`
	Scenario  *Scenario    `json:"scenario"`
	Cells     []CellResult `json:"cells"`
}

// WriteJSON emits the artifact, indented for diffability.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("loadgen: encoding result: %w", err)
	}
	return nil
}
