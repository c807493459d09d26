package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"amp/internal/server"
)

// genLines generates about n command lines of sp on connection 0.
func genLines(sp *spec, seed int64, n int) *stream {
	return newGen(sp, seed, 0).generate(n/sp.depth + 1)
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := genLines(sp, 11, 20000), genLines(sp, 11, 20000), genLines(sp, 12, 20000)
		if !bytes.Equal(a.cmds, b.cmds) || !bytes.Equal(a.exp, b.exp) || len(a.exact) != len(b.exact) {
			t.Errorf("%s: the same seed gave different streams", sp.name)
		}
		for j := range a.exact {
			if a.exact[j] != b.exact[j] {
				t.Fatalf("%s: exact value %d differs under the same seed", sp.name, j)
			}
		}
		if bytes.Equal(a.cmds, c.cmds) {
			t.Errorf("%s: seeds 11 and 12 gave the same stream", sp.name)
		}
		if other := newGen(sp, 11, 1).generate(100); bytes.Equal(other.cmds, a.cmds[:len(other.cmds)]) {
			t.Errorf("%s: connections 0 and 1 send the same stream", sp.name)
		}
		// A longer stream extends a shorter one: the length a host
		// generates does not change what it sends first.
		if short := genLines(sp, 11, 5000); !bytes.HasPrefix(a.cmds, short.cmds[:len(short.cmds)/2]) {
			t.Errorf("%s: a shorter stream is not a prefix of a longer one", sp.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		s := genLines(sp, 3, 30000)
		lines := bytes.Split(bytes.TrimSuffix(s.cmds, []byte("\n")), []byte("\n"))
		if len(lines) != len(s.exp) || len(lines) != s.windows()*sp.depth {
			t.Fatalf("%s: %d lines, %d expectations, %d windows of %d", sp.name, len(lines), len(s.exp), s.windows(), sp.depth)
		}
		for w := 0; w < s.windows(); w++ {
			win := s.cmds[s.winOff[w]:s.winOff[w+1]]
			if n := bytes.Count(win, []byte("\n")); n != sp.depth || win[len(win)-1] != '\n' {
				t.Fatalf("%s: window %d holds %d lines, want %d", sp.name, w, n, sp.depth)
			}
		}
		exact := 0
		for j, line := range lines {
			if _, err := server.ParseCommand(line); err != nil {
				t.Fatalf("%s: line %q does not parse: %v", sp.name, line, err)
			}
			if s.exp[j] == expExact {
				exact++
			}
		}
		if exact != len(s.exact) || exact%canaryGroup != 0 {
			t.Errorf("%s: %d exact expectations, %d exact values", sp.name, exact, len(s.exact))
		}
		share := float64(exact) / float64(len(lines))
		if math.Abs(share-canaryShare) > 0.003 {
			t.Errorf("%s: canary share %.4f, want %.2f", sp.name, share, canaryShare)
		}
	}
}

// ordinary returns the parsed non-canary commands of a stream.
func ordinary(t *testing.T, s *stream) []server.Command {
	t.Helper()
	var out []server.Command
	for j, line := range bytes.Split(bytes.TrimSuffix(s.cmds, []byte("\n")), []byte("\n")) {
		if s.exp[j] == expExact {
			continue
		}
		c, err := server.ParseCommand(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

func TestVerbMixMatchesTheTable(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		cmds := ordinary(t, genLines(sp, 5, 400000))
		got := map[string]float64{}
		for _, c := range cmds {
			got[c.Op.String()] += 100 / float64(len(cmds))
		}
		want := map[string]float64{}
		switch {
		case sp.txn:
			want = map[string]float64{"MULTI": 25, "HINCR": 50, "EXEC": 25}
		case sp.cycle != nil:
			for _, v := range sp.cycle {
				want[verbTable[v].name] += 100 / float64(len(sp.cycle))
			}
		default:
			sum := 0
			for _, m := range sp.mix {
				want[verbTable[m.v].name] = float64(m.pct)
				sum += m.pct
			}
			if sum != 100 {
				t.Errorf("%s: mix sums to %d%%", sp.name, sum)
			}
		}
		for verb, pct := range want {
			if math.Abs(got[verb]-pct) > 1 {
				t.Errorf("%s: %s is %.2f%% of the stream, table says %.0f%%", sp.name, verb, got[verb], pct)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: stream has verbs %v, table has %v", sp.name, got, want)
		}
	}
}

// keyOf returns the key index a keyed command addresses.
func keyOf(c server.Command) (int, bool) {
	switch c.Op {
	case server.OpSet, server.OpGet, server.OpDel:
		return int(c.Arg), true
	case server.OpHSet, server.OpHGet, server.OpHDel, server.OpHIncr:
		k, err := strconv.Atoi(strings.TrimPrefix(c.Key, "k"))
		return k, err == nil
	}
	return 0, false
}

func TestKeyLawMatchesTheTable(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		counts := make([]float64, sp.keys)
		n := 0.0
		for _, c := range ordinary(t, genLines(sp, 9, 400000)) {
			// A transfer's second account is redrawn until it differs from
			// the first, so only the debited one follows the law exactly.
			if k, ok := keyOf(c); ok && !(sp.txn && c.Arg > 0) {
				if k < 0 || k >= sp.keys {
					t.Fatalf("%s: key %d outside [0,%d)", sp.name, k, sp.keys)
				}
				counts[k]++
				n++
			}
		}
		// Expected mass per key: uniform, or Zipf P(k) ∝ (1+k)^-s.
		want := make([]float64, sp.keys)
		total := 0.0
		for k := range want {
			want[k] = 1
			if sp.zipf > 0 {
				want[k] = math.Pow(float64(1+k), -sp.zipf)
			}
			total += want[k]
		}
		// Compare cumulative mass at a few ranks: within ±1% of all draws.
		for _, upTo := range []int{1, 16, sp.keys / 100, sp.keys / 10, sp.keys / 2} {
			var got, exp float64
			for k := 0; k < upTo; k++ {
				got += counts[k] / n
				exp += want[k] / total
			}
			if math.Abs(got-exp) > 0.01 {
				t.Errorf("%s: keys [0,%d) draw %.4f of the traffic, the law says %.4f", sp.name, upTo, got, exp)
			}
		}
	}
}

func TestTransfersAreBalanced(t *testing.T) {
	sp := findSpec("txn-transfer")
	var sum int64
	var inTxn []server.Command
	for _, c := range ordinary(t, genLines(sp, 2, 40000)) {
		switch c.Op {
		case server.OpMulti:
			inTxn = inTxn[:0]
		case server.OpHIncr:
			inTxn = append(inTxn, c)
			sum += c.Arg
		case server.OpExec:
			if len(inTxn) != 2 || inTxn[0].Key == inTxn[1].Key || inTxn[0].Arg != -inTxn[1].Arg {
				t.Fatalf("transaction %v is not a transfer between two accounts", inTxn)
			}
		}
	}
	if sum != 0 {
		t.Errorf("transfers create %d", sum)
	}
}

func TestPreloadCoversTheSpec(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		sets, maps := map[int64]bool{}, map[string]bool{}
		for _, s := range preloadStreams(sp, 3) {
			if len(s.exp) != s.windows()*preloadWin {
				t.Fatalf("%s: preload stream has a short window", sp.name)
			}
			for _, line := range bytes.Split(bytes.TrimSuffix(s.cmds, []byte("\n")), []byte("\n")) {
				c, err := server.ParseCommand(line)
				if err != nil {
					t.Fatal(err)
				}
				switch c.Op {
				case server.OpSet:
					sets[c.Arg] = true
				case server.OpHSet:
					maps[c.Key] = true
				}
			}
		}
		if len(sets) != sp.preSet || len(maps) != sp.preMap {
			t.Errorf("%s: preload sends %d set keys and %d map keys, spec says %d and %d", sp.name, len(sets), len(maps), sp.preSet, sp.preMap)
		}
	}
}
