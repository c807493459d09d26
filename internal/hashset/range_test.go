package hashset

import "testing"

// setRanger is the enumeration the server's snapshot cut, RESTORE's clear
// and RESHARD's split walk.
type setRanger interface {
	Range(f func(x int) bool)
}

// rangeSets builds one instance of each Ch. 13 lock-discipline set and
// the lock-free set; each must expose Range.
func rangeSets() map[string]Set {
	return map[string]Set{
		"coarse":    NewCoarseHashSet(16),
		"striped":   NewStripedHashSet(16),
		"refinable": NewRefinableHashSet(16),
		"lockfree":  NewLockFreeHashSet(),
	}
}

// TestSetRangeEnumeratesAll loads each backend past its resize trigger
// and checks Range yields exactly the live membership.
func TestSetRangeEnumeratesAll(t *testing.T) {
	for name, s := range rangeSets() {
		t.Run(name, func(t *testing.T) {
			r, ok := s.(setRanger)
			if !ok {
				t.Fatalf("%s does not implement Range", name)
			}
			want := map[int]bool{}
			for i := 0; i < 500; i++ {
				s.Add(i)
				want[i] = true
			}
			for i := 0; i < 500; i += 3 {
				s.Remove(i)
				delete(want, i)
			}
			got := map[int]bool{}
			r.Range(func(x int) bool {
				if got[x] {
					t.Errorf("Range yielded %d twice", x)
				}
				got[x] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("Range yielded %d items, want %d", len(got), len(want))
			}
			for x := range want {
				if !got[x] {
					t.Errorf("Range missed %d", x)
				}
			}

			n := 0
			r.Range(func(int) bool { n++; return n < 3 })
			if n != 3 {
				t.Errorf("early-stop Range made %d calls, want 3", n)
			}
			if !s.Add(99999) {
				t.Errorf("Add after Range reported duplicate for a fresh item")
			}
		})
	}
}
