package mailbox

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// atGOMAXPROCS runs f at the given GOMAXPROCS setting and restores the
// old value. The park/wake and producer races behave differently
// oversubscribed (2) and spread out (8), so the concurrency tests pin
// both instead of inheriting whatever the CI leg happens to set.
func atGOMAXPROCS(t *testing.T, n int, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("procs-%d", n), func(t *testing.T) {
		old := runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
		f(t)
	})
}

// put is the waking publish the tests drive the consumer with: the
// server's losing-submitter sequence, a quiet publish then a kick.
func put[T any](m *Mailbox[T], v T) bool {
	if !m.PutQuiet(v) {
		return false
	}
	m.Kick()
	return true
}

// get is the dedicated consumer's loop body: wait, then take. ok=false
// means closed and drained. Single consumer, so a true WaitNonempty is
// always followed by a successful TryGet.
func get[T any](m *Mailbox[T]) (T, bool) {
	if !m.WaitNonempty() {
		var zero T
		return zero, false
	}
	return m.TryGet()
}

// putBacksOff reports whether PutQuiet(v) backs off against a full
// mailbox: it runs the put on a goroutine and gives it a moment to
// return. The put's outcome arrives on res either way; a backed-off put
// stays blocked until the caller takes a value or closes the mailbox.
func putBacksOff[T any](m *Mailbox[T], v T) (blocked bool, res <-chan bool) {
	ch := make(chan bool, 1)
	go func() { ch <- m.PutQuiet(v) }()
	select {
	case ok := <-ch:
		ch <- ok
		return false, ch
	case <-time.After(50 * time.Millisecond):
		return true, ch
	}
}

func TestRingFIFO(t *testing.T) {
	m := New[int](8, 0)
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < 8; i++ {
			if !m.PutQuiet(lap*8 + i) {
				t.Fatalf("lap %d: PutQuiet(%d) refused on an open mailbox", lap, i)
			}
		}
		for i := 0; i < 8; i++ {
			v, ok := m.TryGet()
			if !ok || v != lap*8+i {
				t.Fatalf("lap %d: TryGet = %d,%v, want %d,true", lap, v, ok, lap*8+i)
			}
		}
		if _, ok := m.TryGet(); ok {
			t.Fatal("TryGet succeeded on an empty mailbox")
		}
	}
}

// TestRingExactCapacity fills the mailbox to exactly its capacity —
// across a swap, so the bound covers the consumer's private run as well
// as the producers' slice — proves the next put backs off until a take
// makes room, and drains everything back in order.
func TestRingExactCapacity(t *testing.T) {
	const capacity = 64
	m := New[int](capacity, 0)
	for i := 0; i < capacity/2; i++ {
		m.PutQuiet(i)
	}
	if v, ok := m.TryGet(); !ok || v != 0 { // swaps: the rest now sits in out
		t.Fatalf("TryGet = %d,%v, want 0,true", v, ok)
	}
	for i := capacity / 2; i <= capacity; i++ {
		if blocked, _ := putBacksOff(m, i); blocked {
			t.Fatalf("PutQuiet(%d) backed off with %d slots free", i, capacity+1-i)
		}
	}
	blocked, res := putBacksOff(m, capacity+1)
	if !blocked {
		t.Fatal("PutQuiet succeeded past capacity")
	}
	for i := 1; i <= capacity+1; i++ {
		if i == capacity+1 && !<-res { // the first take made room for it
			t.Fatal("the backed-off PutQuiet failed on an open mailbox")
		}
		v, ok := m.TryGet()
		if !ok || v != i {
			t.Fatalf("TryGet = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := m.TryGet(); ok {
		t.Fatal("mailbox not empty after full drain")
	}
}

// TestRingConcurrentProducersWedgedConsumer runs 8 producers against a
// consumer that stays wedged until every producer has finished: no
// value may be lost or duplicated, and each producer's values must
// come out in that producer's order (per-producer FIFO — the only
// order MPSC promises).
func TestRingConcurrentProducersWedgedConsumer(t *testing.T) {
	run := func(t *testing.T) {
		const producers = 8
		const perProducer = 16 // 8×16 = 128 = capacity: an exact concurrent fill
		m := New[int](producers*perProducer, 0)

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					m.PutQuiet(p*1000 + i) // capacity guarantees it never backs off for long
				}
			}(p)
		}
		wg.Wait() // the consumer is wedged: nothing drained while producing

		blocked, res := putBacksOff(m, 9999)
		if !blocked {
			t.Fatal("PutQuiet succeeded on a mailbox filled to exactly capacity")
		}

		lastSeen := [producers]int{}
		for p := range lastSeen {
			lastSeen[p] = -1
		}
		seen := make(map[int]bool, producers*perProducer)
		for n := 0; n < producers*perProducer; n++ {
			v, ok := m.TryGet()
			if !ok {
				t.Fatalf("mailbox empty after %d of %d values", n, producers*perProducer)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d", v)
			}
			seen[v] = true
			p, i := v/1000, v%1000
			if i <= lastSeen[p] {
				t.Fatalf("producer %d out of order: %d after %d", p, i, lastSeen[p])
			}
			lastSeen[p] = i
		}
		<-res // the take made room: the backed-off put lands last
		if v, ok := get(m); !ok || v != 9999 {
			t.Fatalf("get = %d,%v, want the backed-off 9999", v, ok)
		}
		if _, ok := m.TryGet(); ok {
			t.Fatal("extra value after full drain")
		}
	}
	atGOMAXPROCS(t, 2, run)
	atGOMAXPROCS(t, 8, run)
}

// TestMailboxParkWakeRace hammers the exact window the parked-flag
// handshake exists for: a producer publishing while the consumer is
// deciding to park. The spin budget is 1, so the consumer reaches the
// park decision on nearly every value; a lost wakeup deadlocks the
// test (bounded by the timeout).
func TestMailboxParkWakeRace(t *testing.T) {
	run := func(t *testing.T) {
		const values = 20000
		m := New[int](4, 1) // spin budget 1: park on almost every empty poll

		done := make(chan int, 1)
		go func() {
			sum := 0
			for {
				v, ok := get(m)
				if !ok {
					done <- sum
					return
				}
				sum += v
			}
		}()

		want := 0
		for i := 1; i <= values; i++ {
			if !put(m, i) {
				t.Errorf("put(%d) failed before Close", i)
				break
			}
			want += i
		}
		m.Close()

		select {
		case got := <-done:
			if got != want {
				t.Fatalf("consumer sum = %d, want %d (values lost or duplicated)", got, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("consumer never finished: lost wakeup")
		}
	}
	atGOMAXPROCS(t, 2, run)
	atGOMAXPROCS(t, 8, run)
}

// TestMailboxConcurrentProducersParkingConsumer combines both races:
// 8 producers with a tiny mailbox (constant full/empty transitions) and
// a consumer with a tiny spin budget (constant park/wake churn).
func TestMailboxConcurrentProducersParkingConsumer(t *testing.T) {
	run := func(t *testing.T) {
		const producers, perProducer = 8, 2000
		m := New[int](8, 2)

		done := make(chan map[int]int, 1)
		go func() {
			counts := make(map[int]int)
			for {
				v, ok := get(m)
				if !ok {
					done <- counts
					return
				}
				counts[v]++
			}
		}()

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					if !put(m, p*perProducer+i) {
						t.Errorf("producer %d: put failed before Close", p)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		m.Close()

		select {
		case counts := <-done:
			if len(counts) != producers*perProducer {
				t.Fatalf("consumer saw %d distinct values, want %d", len(counts), producers*perProducer)
			}
			for v, n := range counts {
				if n != 1 {
					t.Fatalf("value %d delivered %d times", v, n)
				}
			}
		case <-time.After(60 * time.Second):
			t.Fatal("consumer never finished: lost wakeup or stuck producer")
		}
	}
	atGOMAXPROCS(t, 2, run)
	atGOMAXPROCS(t, 8, run)
}

// TestMailboxCloseRejectsAndDrains: values published before Close are
// all delivered; puts after Close fail; the consumer then reports done.
func TestMailboxCloseRejectsAndDrains(t *testing.T) {
	m := New[int](16, 4)
	for i := 0; i < 5; i++ {
		if !put(m, i) {
			t.Fatalf("put(%d) failed on an open mailbox", i)
		}
	}
	m.Close()
	if m.PutQuiet(99) {
		t.Fatal("PutQuiet succeeded after Close")
	}
	for i := 0; i < 5; i++ {
		v, ok := get(m)
		if !ok || v != i {
			t.Fatalf("get = %d,%v, want %d,true (published values must survive Close)", v, ok, i)
		}
	}
	if _, ok := get(m); ok {
		t.Fatal("get returned a value after the drain")
	}
	if !m.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

// TestMailboxCloseUnblocksFullProducer: a producer backing off against
// a full mailbox (wedged consumer) must give up promptly when the
// mailbox closes, never publishing its value.
func TestMailboxCloseUnblocksFullProducer(t *testing.T) {
	m := New[int](2, 4)
	put(m, 1)
	put(m, 2) // full; no consumer

	blocked, res := putBacksOff(m, 3)
	if !blocked {
		t.Fatal("PutQuiet returned while the mailbox was full and open")
	}

	m.Close()
	select {
	case ok := <-res:
		if ok {
			t.Fatal("PutQuiet reported success after Close on a full mailbox")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PutQuiet still blocked after Close")
	}

	// The two published values are still there.
	for want := 1; want <= 2; want++ {
		v, ok := get(m)
		if !ok || v != want {
			t.Fatalf("get = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := get(m); ok {
		t.Fatal("the aborted put's value leaked into the mailbox")
	}
}

// TestMailboxSpinParkCounters: a pre-published value resolves without
// any waiting; a delayed producer first burns the spin budget (spin
// stat) or parks (park stat).
func TestMailboxSpinParkCounters(t *testing.T) {
	m := New[int](8, DefaultSpinBudget)
	put(m, 1)
	if v, ok := get(m); !ok || v != 1 {
		t.Fatalf("get = %d,%v, want 1,true", v, ok)
	}
	if s, p := m.Spins(), m.Parks(); s != 0 || p != 0 {
		t.Fatalf("immediate get counted spins=%d parks=%d, want 0,0", s, p)
	}

	go func() {
		time.Sleep(100 * time.Millisecond) // long past any spin budget
		put(m, 2)
	}()
	if v, ok := get(m); !ok || v != 2 {
		t.Fatalf("get = %d,%v, want 2,true", v, ok)
	}
	if m.Parks() < 1 {
		t.Fatalf("delayed producer: parks=%d, want >= 1", m.Parks())
	}
}
