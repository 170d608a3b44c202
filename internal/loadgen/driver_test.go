package loadgen

import (
	"context"
	"testing"

	"scbr/internal/scheme"
)

// tinyScenario is a seconds-scale run covering a federated plain cell
// and a single-router aspe cell, with flash and churn phases.
func tinyScenario() *Scenario {
	return &Scenario{
		Name:        "tiny",
		Seed:        11,
		Subscribers: 60,
		Measured:    2,
		ZipfS:       1,
		Symbols:     20,
		Events:      60,
		Publishers:  2,
		BatchSize:   15,
		FlashEvents: 30,
		ChurnCycles: 1,
		ChurnEvents: 20,
		Partitions:  []int{2},
		Schemes:     []string{scheme.Plain, scheme.ASPE},
		Routers:     []int{1, 2},
	}
}

// The harness end to end: every cell either runs with full delivery
// accounting (zero unaccounted events) or is explicitly skipped.
func TestRunTinyScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up live topologies")
	}
	s := tinyScenario()
	res, err := Run(context.Background(), s, t.Logf, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(res.Cells))
	}
	var ran, skipped int
	for _, c := range res.Cells {
		if c.Skipped != "" {
			if c.Scheme != scheme.ASPE || c.Routers != 2 {
				t.Fatalf("unexpected skip: %+v", c)
			}
			skipped++
			continue
		}
		ran++
		total := uint64(c.Events) * uint64(c.Measured)
		if c.Expected != total {
			t.Fatalf("cell %s/r%d: expected %d, want %d", c.Scheme, c.Routers, c.Expected, total)
		}
		if c.Unaccounted != 0 {
			t.Fatalf("cell %s/r%d: %d events unaccounted (delivered=%d gaps=%d expected=%d)",
				c.Scheme, c.Routers, c.Unaccounted, c.Delivered, c.Gaps, c.Expected)
		}
		if c.Delivered+c.Gaps != c.Expected {
			t.Fatalf("cell %s/r%d: delivered=%d gaps=%d does not cover expected=%d",
				c.Scheme, c.Routers, c.Delivered, c.Gaps, c.Expected)
		}
		if c.Delivered == 0 {
			t.Fatalf("cell %s/r%d: nothing delivered", c.Scheme, c.Routers)
		}
		if c.EndToEnd.Count == 0 || c.EndToEnd.P99 < c.EndToEnd.P50 {
			t.Fatalf("cell %s/r%d: bad end-to-end summary %+v", c.Scheme, c.Routers, c.EndToEnd)
		}
		// Live sends record enqueue→write latency; replayed frames
		// deliberately do not. Every delivery must be one or the other.
		if c.EnqueueWrite.Count+c.Counters.DeliveriesReplayed == 0 {
			t.Fatalf("cell %s/r%d: no live sends and no replays despite %d deliveries",
				c.Scheme, c.Routers, c.Delivered)
		}
		if c.Resumes < s.Measured {
			t.Fatalf("cell %s/r%d: %d resumes, want at least one per listener", c.Scheme, c.Routers, c.Resumes)
		}
		if c.RegisterPerSec <= 0 || c.PublishSecs <= 0 || c.DrainSecs < 0 {
			t.Fatalf("cell %s/r%d: missing phase timings: %+v", c.Scheme, c.Routers, c)
		}
	}
	if ran != 3 || skipped != 1 {
		t.Fatalf("ran %d skipped %d, want 3/1", ran, skipped)
	}
	if res.Host.GoVersion == "" || res.Host.CPUs == 0 {
		t.Fatalf("host baseline not captured: %+v", res.Host)
	}
	if res.WallSecs <= 0 {
		t.Fatal("wall time not recorded")
	}
}

// A partitions entry of 0 is planner-sized: the cell's slice count
// must come from deploy.Plan and be recorded in the result.
func TestRunPlannerSizedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up live topologies")
	}
	s := tinyScenario()
	s.Schemes = []string{scheme.Plain}
	s.Routers = []int{1}
	s.Partitions = []int{0}
	s.PlanEPCBudget = 4 << 20
	res, err := Run(context.Background(), s, t.Logf, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.PlannedPartitions < 1 {
		t.Fatalf("no planned partition count recorded: %+v", c)
	}
	if c.PlanEPCBudget != s.PlanEPCBudget {
		t.Fatalf("plan budget %d recorded, want %d", c.PlanEPCBudget, s.PlanEPCBudget)
	}
	if c.Unaccounted != 0 || c.Delivered == 0 {
		t.Fatalf("planner-sized cell lost traffic: %+v", c)
	}
}

func TestValidatePlannerPartitions(t *testing.T) {
	s := tinyScenario()
	s.Partitions = []int{0}
	if err := s.Validate(); err == nil {
		t.Error("partitions 0 without plan_epc_budget accepted")
	}
	s.PlanEPCBudget = 1 << 20
	if err := s.Validate(); err != nil {
		t.Errorf("planner-sized scenario rejected: %v", err)
	}
}
