package main

import "testing"

func seg(vals ...float64) metric {
	m := metric{Segments: vals, Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		m.Min, m.Max = min(m.Min, v), max(m.Max, v)
	}
	// The median of five in the tests below is always the third listed.
	m.Value = vals[len(vals)/2]
	return m
}

func TestVerdict(t *testing.T) {
	tput := def{Name: "throughput_ops_s", Higher: true, Bound: 0.10}
	lat := def{Name: "latency_p50_us", Higher: false, Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b metric
		d    def
		want string
	}{
		{"steady and equal", seg(98, 99, 100, 101, 102), seg(97, 100, 101, 102, 103), tput, "within-bound"},
		{"throughput down 20%", seg(98, 99, 100, 101, 102), seg(78, 79, 80, 81, 82), tput, "worse"},
		{"throughput up 20%", seg(98, 99, 100, 101, 102), seg(118, 119, 120, 121, 122), tput, "better"},
		{"latency up 20%", seg(98, 99, 100, 101, 102), seg(118, 119, 120, 121, 122), lat, "worse"},
		{"latency down 20%", seg(98, 99, 100, 101, 102), seg(78, 79, 80, 81, 82), lat, "better"},
		{"noisy and overlapping", seg(60, 95, 100, 105, 110), seg(70, 75, 80, 85, 100), tput, "unresolved"},
		{"noisy but disjoint", seg(90, 95, 100, 105, 120), seg(60, 62, 65, 66, 68), tput, "worse"},
		{"no segments (rss)", metric{Value: 100}, metric{Value: 115}, lat, "worse"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
