package exp

import "testing"

func TestAblationSwitchlessShape(t *testing.T) {
	rows, err := AblationSwitchless(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	byMode := make(map[string]SwitchlessRow, len(rows))
	for _, r := range rows {
		if r.Micros <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		byMode[r.Mode] = r
	}
	// Larger batches amortise the transition cost: per-op time and the
	// transition share both fall with every entry saved (at this scale
	// ecall/50 already delivers the 50 publications in one).
	for i := 1; i < len(rows)-1; i++ {
		prev, cur := rows[i-1], rows[i]
		if cur.Transitions == prev.Transitions {
			continue
		}
		if cur.Micros >= prev.Micros {
			t.Errorf("%s not cheaper than %s: %f vs %f", cur.Mode, prev.Mode, cur.Micros, prev.Micros)
		}
		if cur.TransitionShare >= prev.TransitionShare {
			t.Errorf("transition share did not fall from %s to %s: %+v", prev.Mode, cur.Mode, rows)
		}
	}
	one, ten, switchless := byMode["ecall/1"], byMode["ecall/10"], byMode["switchless"]
	// Transition accounting: per-message ecalls pay one transition per
	// publication; the ring pays exactly one in total.
	if one.Transitions < ten.Transitions || ten.Transitions <= switchless.Transitions {
		t.Errorf("transition ordering wrong: %+v", rows)
	}
	if switchless.Transitions != 1 {
		t.Errorf("switchless used %d transitions, want 1", switchless.Transitions)
	}
	// The transition share must collapse as delivery amortises.
	if one.TransitionShare <= ten.TransitionShare {
		t.Errorf("batching did not reduce transition share: %+v", rows)
	}
	if switchless.TransitionShare >= one.TransitionShare {
		t.Errorf("switchless share (%f) not below ecall/1 (%f)",
			switchless.TransitionShare, one.TransitionShare)
	}
	// On a small database the transition dominates, so switchless must
	// also win on absolute time.
	if switchless.Micros >= one.Micros {
		t.Errorf("switchless (%f µs) not cheaper than ecall/1 (%f µs)",
			switchless.Micros, one.Micros)
	}
}
