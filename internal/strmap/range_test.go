package strmap

import (
	"fmt"
	"testing"
)

// ranger is the enumeration the server's snapshot cut, RESTORE's clear and
// RESHARD's split walk.
type ranger interface {
	Range(f func(key string, val int64) bool)
}

// rangeMaps builds one instance of every map backend; each must expose
// Range.
func rangeMaps() map[string]Map {
	return map[string]Map{
		"coarse":       NewCoarseMap(16),
		"striped":      NewStripedMap(16),
		"refinable":    NewRefinableMap(16),
		"cuckoo-chain": NewCuckooChainMap(16),
		"epoch":        NewEpochMap(16),
	}
}

// TestRangeEnumeratesAll loads each backend past its resize trigger and
// checks Range yields exactly the live entries — the invariant SAVE,
// RESTORE and RESHARD depend on.
func TestRangeEnumeratesAll(t *testing.T) {
	for name, m := range rangeMaps() {
		t.Run(name, func(t *testing.T) {
			r, ok := m.(ranger)
			if !ok {
				t.Fatalf("%s does not implement Range", name)
			}
			want := map[string]int64{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%03d", i)
				m.Set(k, int64(i))
				want[k] = int64(i)
			}
			for i := 0; i < 500; i += 3 { // deletions must not reappear
				k := fmt.Sprintf("k%03d", i)
				m.Del(k)
				delete(want, k)
			}
			m.Set("k001", -1) // overwrite must show the latest value
			want["k001"] = -1

			got := map[string]int64{}
			r.Range(func(key string, val int64) bool {
				if _, dup := got[key]; dup {
					t.Errorf("Range yielded %q twice", key)
				}
				got[key] = val
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("Range yielded %d entries, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("Range[%q] = %d, want %d", k, got[k], v)
				}
			}

			// Early stop: the callback's false return ends the walk.
			n := 0
			r.Range(func(string, int64) bool { n++; return n < 3 })
			if n != 3 {
				t.Errorf("early-stop Range made %d calls, want 3", n)
			}

			// The structure stays writable after Range released its locks.
			if !m.Set("after-range", 7) {
				t.Errorf("Set after Range reported overwrite of a fresh key")
			}
		})
	}
}
