package txn

import "testing"

// TestAllocations pins what an operation on existing keys allocates, as
// counts rather than timings so that the limits hold on any host: a
// single-key write is the one cell it publishes, a read and a no-op
// delete are free, and Exec pays for its two result-sized slices plus one
// cell per written key.
func TestAllocations(t *testing.T) {
	ks := newTL2()
	ks.Set("a", 1)
	ks.Set("b", 1)
	ks.Set("gone", 1)
	ks.Del("gone")
	transfer := []Op{{Kind: Incr, Key: "a", Val: -1}, {Kind: Incr, Key: "b", Val: 1}}
	ks.Exec(transfer) // warm the attempt pool
	for _, tc := range []struct {
		name  string
		limit float64
		skip  bool
		op    func()
	}{
		{name: "Get", limit: 0, op: func() { ks.Get("a") }},
		{name: "Set", limit: 1, op: func() { ks.Set("a", 2) }},
		{name: "Incr", limit: 1, op: func() { ks.Incr("a", 1) }},
		{name: "Inc", limit: 1, op: func() { ks.Inc() }},
		{name: "Set then Del", limit: 2, op: func() { ks.Set("b", 3); ks.Del("b") }},
		{name: "Del of a deleted key", limit: 0, op: func() { ks.Del("gone") }},
		{name: "Del of an unknown key", limit: 0, op: func() { ks.Del("never") }},
		{name: "Exec of two Incr", limit: 4, skip: raceEnabled, op: func() { ks.Exec(transfer) }},
	} {
		if got := testing.AllocsPerRun(100, tc.op); got > tc.limit && !tc.skip {
			t.Errorf("%s: %v allocs/op, want at most %v", tc.name, got, tc.limit)
		}
	}
}
