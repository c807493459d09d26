//go:build race

package txn

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so Exec's pooled attempt is not allocation-stable.
const raceEnabled = true
