//go:build race

package broker

// raceEnabled reports a test binary built with -race, where sync.Pool
// drops objects at random and allocation budgets do not hold.
const raceEnabled = true
