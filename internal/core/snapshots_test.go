package core

import "testing"

func TestCheckSnapshots(t *testing.T) {
	type kv = KV[int]
	// Position:     0 (initial)        1          2          3                  4
	log := [][]kv{{{"a", 0}, {"b", 0}}, {{"a", 1}}, {{"b", 2}}, {{"a", 3}, {"b", 3}}, {{"a", 0}}}
	for _, tc := range []struct {
		name  string
		reads []kv
		ok    bool
	}{
		{"empty attempt", nil, true},
		{"initial state", []kv{{"a", 0}, {"b", 0}}, true},
		{"between two commits", []kv{{"b", 0}, {"a", 1}}, true},
		{"same key twice", []kv{{"a", 1}, {"a", 1}}, true},
		{"both halves of a multi-key commit", []kv{{"a", 3}, {"b", 3}}, true},
		{"a value written twice matches its later version", []kv{{"a", 0}, {"b", 3}}, true},
		{"a overwritten before b's value existed", []kv{{"a", 0}, {"b", 2}}, false},
		{"half of a multi-key commit", []kv{{"a", 1}, {"b", 3}}, false},
		{"non-repeatable read", []kv{{"a", 1}, {"a", 3}}, false},
		{"a value nobody wrote", []kv{{"a", 7}}, false},
		{"a key nobody wrote", []kv{{"c", 0}}, false},
	} {
		err := CheckSnapshots(log, [][]kv{{{"a", 0}}, tc.reads})
		if (err == nil) != tc.ok {
			t.Errorf("%s: reads %v: err = %v, want consistent = %v", tc.name, tc.reads, err, tc.ok)
		}
	}
}
