package server

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"amp/internal/core"
)

// TestMorphStatsUnderPhaseShift is the whitebox morph test: a forced
// phase shift (writes → reads → writes) on a one-shard server with
// per-batch controller evaluation must switch both adaptive families to
// their read member and back, and STATS must report exactly those edges.
// The script is fully deterministic: one client, one command per batch,
// so each round-trip is exactly one controller tick whose window
// contents are known in advance.
func TestMorphStatsUnderPhaseShift(t *testing.T) {
	srv := startServer(t, Options{
		Shards: 1, Set: "adaptive", Map: "adaptive", Txn: "off",
		MorphEvery: 1, morphMinOps: 1,
	})
	c := dial(t, srv)

	// Write phase: both families boot on their write member (coarse) and
	// a write window leaves them there.
	c.expect(t, "SET 5", "1")
	c.expect(t, "HSET k 1", "1")

	// Read phase: a pure-read window moves each family to its read
	// member (set: lockfree, map: epoch). These reads ride the mailbox —
	// coarse has no bypass — and their tick morphs.
	c.expect(t, "GET 5", "1")
	c.expect(t, "HGET k", "1")

	// Now both shards are on bypass-capable members: these reads execute
	// on the connection goroutine (no batch, no tick) and land in the
	// next window's read count.
	c.expect(t, "GET 5", "1")
	c.expect(t, "HGET k", "1")

	// Write phase: the regime change costs each family one migration,
	// straight back to coarse. Every batch ticks both controllers, so
	// the first DEL closes a set window holding the bypass GET too (read
	// fraction 1/2, not below ReadLo: stay) and a map window holding
	// only the bypass HGET (stay); the HDEL then closes a pure-write map
	// window (epoch→coarse) and the second DEL a pure-write set window
	// (lockfree→coarse). The remaining writes must not move anything.
	for i := 0; i < 4; i++ {
		c.expect(t, "DEL 9", "0")
		c.expect(t, "HDEL nope", "0")
	}

	body := readStats(t, c, c.cmd(t, "STATS"))
	for _, want := range []string{
		"read-bypass set=adaptive map=adaptive",
		"morph mode=on every=1 set=adaptive(coarse:1) map=adaptive(coarse:1) flips=4",
		"op morph.flip count=4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("STATS missing %q:\n%s", want, body)
		}
	}
	// The edge rows, exactly: each has the family's read member at one
	// end and coarse at the other.
	var edges []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "morph set=") || strings.HasPrefix(line, "morph map=") {
			edges = append(edges, line)
		}
	}
	wantEdges := []string{
		"morph set=coarse→lockfree n=1",
		"morph set=lockfree→coarse n=1",
		"morph map=coarse→epoch n=1",
		"morph map=epoch→coarse n=1",
	}
	if !slices.Equal(edges, wantEdges) {
		t.Errorf("STATS morph edges = %q, want %q", edges, wantEdges)
	}
}

// TestMorphOffFreezesBootMember pins the -morph off escape hatch: the
// adaptive backends boot on coarse and never move, whatever the
// workload does.
func TestMorphOffFreezesBootMember(t *testing.T) {
	srv := startServer(t, Options{
		Shards: 1, Set: "adaptive", Map: "adaptive", Txn: "off",
		Morph: "off", MorphEvery: 1, morphMinOps: 1,
	})
	c := dial(t, srv)
	c.expect(t, "SET 5", "1")
	c.expect(t, "HSET k 1", "1")
	for i := 0; i < 10; i++ {
		c.expect(t, "GET 5", "1")
		c.expect(t, "HGET k", "1")
	}
	body := readStats(t, c, c.cmd(t, "STATS"))
	for _, want := range []string{
		"morph mode=off every=1 set=adaptive(coarse:1) map=adaptive(coarse:1) flips=0",
		"op morph.flip count=0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("STATS missing %q:\n%s", want, body)
		}
	}
}

// TestMorphOptionValidation rejects a bad -morph mode at boot.
func TestMorphOptionValidation(t *testing.T) {
	opts := Options{Morph: "sometimes"}
	if _, err := New(opts); err == nil {
		t.Errorf("New(%+v) succeeded, want morph validation error", opts)
	}
}

// TestServerLinearizableAdaptiveMorphs records concurrent set and map
// histories through phase-shifted load (read-heavy → write-heavy →
// read-heavy → write-heavy) on adaptive backends that morph live, then
// checks both histories against the sequential models. The flip count is
// asserted, so a linearizable result genuinely covers reads and writes
// racing at least one migration + pointer flip — the PR's core safety
// claim. Run at GOMAXPROCS 2 and 8 for starved and parallel schedules.
func TestServerLinearizableAdaptiveMorphs(t *testing.T) {
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			testAdaptiveMorphHistory(t)
		})
	}
}

func testAdaptiveMorphHistory(t *testing.T) {
	const phases, perPhase, opsEach = 4, 2, 85
	depths := []int{1, 8}
	const budget = 4_000_000
	const attempts = 6
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}

	for attempt := 1; attempt <= attempts; attempt++ {
		srv := startServer(t, Options{
			Shards: 2, Set: "adaptive", Map: "adaptive", Txn: "off",
			MorphEvery: 1, morphMinOps: 16,
		})
		recSet, recMap := core.NewRecorder(), core.NewRecorder()

		for p := 0; p < phases && !t.Failed(); p++ {
			readPct := 98
			if p%2 == 1 {
				readPct = 5
			}
			var wg sync.WaitGroup
			for j := 0; j < perPhase; j++ {
				id := p*perPhase + j
				wg.Add(2)
				go func(id, depth int) {
					defer wg.Done()
					if err := setMixHistoryClient(srv.Addr().String(), recSet, core.ThreadID(id),
						6, readPct, depth, opsEach, id); err != nil {
						t.Errorf("set client %d: %v", id, err)
					}
				}(id, depths[j%len(depths)])
				go func(id, depth int) {
					defer wg.Done()
					if err := mapMixHistoryClient(srv.Addr().String(), recMap, core.ThreadID(id),
						keys, readPct, depth, opsEach, id); err != nil {
						t.Errorf("map client %d: %v", id, err)
					}
				}(id, depths[(j+1)%len(depths)])
			}
			wg.Wait()
		}
		if t.Failed() {
			return
		}

		flips := srv.eng.morphFlips()
		if flips == 0 {
			t.Fatal("phase shifts produced no morphs; the history proves nothing")
		}

		resSet := core.CheckBudget(core.SetModel(), recSet.History(), budget)
		resMap := core.CheckBudget(core.MapModel(), recMap.History(), budget)
		if resSet.Exhausted || resMap.Exhausted {
			t.Logf("attempt %d/%d exhausted the %d-step budget (flips=%d); re-recording",
				attempt, attempts, budget, flips)
			continue
		}
		if !resSet.Linearizable {
			t.Fatalf("set history across %d morphs is not linearizable", flips)
		}
		if !resMap.Linearizable {
			t.Fatalf("map history across %d morphs is not linearizable", flips)
		}
		return
	}
	t.Fatalf("checker budget exhausted on %d consecutive recordings", attempts)
}
