package adaptive

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// cfg1 evaluates on every tick and accepts one-op windows: the unit
// tests drive windows explicitly.
var cfg1 = Config{Every: 1, MinOps: 1}

// TestDecidePolicy pins the pure policy: one read-fraction hysteresis,
// the same for both families. The last five rows keep the names the
// test floor pinned when the policy also walked a contention ladder;
// what they hold now is the other half of each edge — the boundaries of
// the band and the windows that must not move a two-member container.
func TestDecidePolicy(t *testing.T) {
	cases := []struct {
		name          string
		onRead        bool
		reads, writes int64
		want          bool
	}{
		{"window too small", false, 100, 10, false},
		{"read-heavy morphs to read member", false, 950, 50, true},
		{"read member stays in hysteresis band", true, 700, 300, false},
		{"read member returns on write-heavy", true, 100, 900, true},
		{"contention climbs", false, 100, 900, false},          // write-heavy on the write member: nowhere to go
		{"top rung cannot climb", true, 950, 50, false},        // read-heavy on the read member stays
		{"quiet descends", true, 499, 501, true},               // just under ReadLo leaves
		{"bottom rung cannot descend", false, 899, 101, false}, // just under ReadHi does not enter
		{"mid-band holds", false, 700, 300, false},
	}
	cfg := Config{}.withDefaults()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := decide(cfg, tc.onRead, tc.reads, tc.writes); got != tc.want {
				t.Fatalf("decide(onRead=%v, %d, %d) = %v; want %v",
					tc.onRead, tc.reads, tc.writes, got, tc.want)
			}
		})
	}

	// The band is the same for both families, driven through the real
	// containers: a 70%-read window neither pulls one onto its read
	// member nor pushes it off.
	t.Run("70% reads neither enters nor leaves", func(t *testing.T) {
		s, m := NewSet(64, cfg1), NewMap(64, cfg1)
		for _, member := range []string{"write", "read"} {
			if member == "read" {
				if _, _, ok := setWindow(s, 400, 10); !ok || !s.BypassOK() {
					t.Fatalf("set did not reach its read member")
				}
				if _, _, ok := mapWindow(m, 400, 10); !ok || !m.BypassOK() {
					t.Fatalf("map did not reach its read member")
				}
			}
			if from, to, ok := setWindow(s, 700, 300); ok {
				t.Errorf("set on its %s member: 70%% reads morphed %s→%s", member, from, to)
			}
			if from, to, ok := mapWindow(m, 700, 300); ok {
				t.Errorf("map on its %s member: 70%% reads morphed %s→%s", member, from, to)
			}
		}
	})
}

// mapWindow drives one sampled window of the given shape through m and
// closes it with a Tick.
func mapWindow(m *Map, reads, writes int) (string, string, bool) {
	for i := 0; i < writes; i++ {
		m.Set(fmt.Sprintf("w%05d", i), int64(i))
	}
	for i := 0; i < reads; i++ {
		m.Get(fmt.Sprintf("w%05d", i%(writes+1)))
	}
	return m.Tick()
}

// setWindow is mapWindow for the set. Its writes add and remove scratch
// items ≥ 1000, so an even write count leaves the membership unchanged.
func setWindow(s *Set, reads, writes int) (string, string, bool) {
	for i := 0; i < writes; i += 2 {
		s.Add(1000 + i)
		s.Remove(1000 + i)
	}
	for i := 0; i < reads; i++ {
		s.Contains(i % 100)
	}
	return s.Tick()
}

// TestMapMorphLifecycle walks the map through read-heavy and write-heavy
// windows and checks the member sequence, entry survival, and the
// transition log.
func TestMapMorphLifecycle(t *testing.T) {
	m := NewMap(64, cfg1)
	if got := m.Current(); got != "coarse" {
		t.Fatalf("boot member %q, want coarse", got)
	}
	if m.BypassOK() {
		t.Fatal("coarse member must not advertise bypass")
	}

	// Seed entries that must survive every morph below.
	for i := 0; i < 100; i++ {
		m.Set(fmt.Sprintf("seed%03d", i), int64(1000+i))
	}

	// Pure-write window: the boot member is the write member already.
	if from, to, ok := mapWindow(m, 0, 400); ok {
		t.Fatalf("write window: morph %q→%q, want none", from, to)
	}

	// Read-heavy window: morphs to epoch and turns bypass on.
	if from, to, ok := mapWindow(m, 400, 10); !ok || from != "coarse" || to != "epoch" {
		t.Fatalf("read window: morph %q→%q ok=%v, want coarse→epoch", from, to, ok)
	}
	if !m.BypassOK() {
		t.Fatal("epoch member must advertise bypass")
	}
	if v, ok, served := m.TryGet("seed007"); !served || !ok || v != 1007 {
		t.Fatalf("TryGet(seed007) = %d,%v,%v; want 1007,true,true", v, ok, served)
	}

	// Write-heavy window: back to coarse.
	if from, to, ok := mapWindow(m, 10, 400); !ok || from != "epoch" || to != "coarse" {
		t.Fatalf("return window: morph %q→%q ok=%v, want epoch→coarse", from, to, ok)
	}
	if _, _, served := m.TryGet("seed007"); served {
		t.Fatal("TryGet served on a non-bypass member")
	}

	// Every seed entry survived both migrations.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("seed%03d", i)
		if v, ok := m.Get(k); !ok || v != int64(1000+i) {
			t.Fatalf("Get(%s) = %d,%v after morphs; want %d,true", k, v, ok, 1000+i)
		}
	}

	if got := m.Flips(); got != 2 {
		t.Fatalf("Flips() = %d, want 2", got)
	}
	want := []Transition{
		{From: "coarse", To: "epoch", N: 1},
		{From: "epoch", To: "coarse", N: 1},
	}
	if got := m.Transitions(); !slices.Equal(got, want) {
		t.Fatalf("Transitions() = %v, want %v", got, want)
	}
}

// TestSetMorphLifecycle mirrors the map lifecycle for the set: the
// lock-free read member is entered on a read-heavy window and left in
// one migration on a write-heavy one.
func TestSetMorphLifecycle(t *testing.T) {
	s := NewSet(64, cfg1)
	if got := s.Current(); got != "coarse" {
		t.Fatalf("boot member %q, want coarse", got)
	}
	for i := 0; i < 100; i++ {
		s.Add(i)
	}

	// Read-heavy window (the 100 Adds above are in it too): jump to
	// lockfree.
	if from, to, ok := setWindow(s, 1000, 0); !ok || from != "coarse" || to != "lockfree" {
		t.Fatalf("read window: morph %q→%q ok=%v, want coarse→lockfree", from, to, ok)
	}
	if member, served := s.TryContains(42); !served || !member {
		t.Fatalf("TryContains(42) = %v,%v; want true,true", member, served)
	}

	// Write-heavy windows: one migration back to coarse, then no more.
	if from, to, ok := setWindow(s, 0, 800); !ok || from != "lockfree" || to != "coarse" {
		t.Fatalf("return window: morph %q→%q ok=%v, want lockfree→coarse", from, to, ok)
	}
	if _, served := s.TryContains(42); served {
		t.Fatal("TryContains served on a non-bypass member")
	}
	for i := 0; i < 2; i++ {
		if from, to, ok := setWindow(s, 0, 800); ok {
			t.Fatalf("write window on coarse: morph %q→%q, want none", from, to)
		}
	}
	for i := 0; i < 100; i++ {
		if !s.Contains(i) {
			t.Fatalf("member %d lost across morphs", i)
		}
	}
	if got := s.Flips(); got != 2 {
		t.Fatalf("Flips() = %d, want 2", got)
	}
}

// TestTryGetDuringMorphs races wait-free readers against an owner that
// morphs continuously; the invariant is that a served read of an
// immutable key always returns its value. Run under -race this is the
// package's publication-safety proof.
func TestTryGetDuringMorphs(t *testing.T) {
	m := NewMap(64, cfg1)
	m.Set("stable", 42)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if v, ok, served := m.TryGet("stable"); served && (!ok || v != 42) {
					t.Errorf("TryGet(stable) = %d,%v mid-morph; want 42,true", v, ok)
					return
				}
			}
		}()
	}

	flips := m.Flips()
	for round := 0; round < 40; round++ {
		mapWindow(m, 400, 10) // pull toward epoch
		mapWindow(m, 10, 400) // push back to coarse
	}
	close(done)
	wg.Wait()
	if got := m.Flips(); got <= flips {
		t.Fatalf("no morphs happened during the race (flips %d)", got)
	}
	if v, ok := m.Get("stable"); !ok || v != 42 {
		t.Fatalf("Get(stable) = %d,%v after the race; want 42,true", v, ok)
	}
}
