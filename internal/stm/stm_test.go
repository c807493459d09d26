package stm

import (
	"sync"
	"testing"
)

func TestSequentialReadWrite(t *testing.T) {
	s := New()
	x := NewTVar(10)
	var got int
	s.Atomic(func(tx *Tx) {
		got = x.Get(tx)
		x.Set(tx, got+5)
	})
	if got != 10 {
		t.Fatalf("Get = %d, want 10", got)
	}
	if v := x.Load(); v != 15 {
		t.Fatalf("Load = %d, want 15", v)
	}
	if s.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", s.Commits())
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	s := New()
	x := NewTVar(0)
	s.Atomic(func(tx *Tx) {
		x.Set(tx, 7)
		if got := x.Get(tx); got != 7 {
			t.Errorf("Get after Set = %d, want 7", got)
		}
		x.Set(tx, x.Get(tx)+1)
	})
	if v := x.Load(); v != 8 {
		t.Fatalf("Load = %d, want 8", v)
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	s := New()
	x := NewTVar(1)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		first := true
		s.Atomic(func(tx *Tx) {
			x.Set(tx, 99)
			if first {
				first = false
				close(entered)
				<-release
			}
		})
	}()
	<-entered
	if v := x.Load(); v != 1 {
		t.Fatalf("uncommitted write visible: Load = %d", v)
	}
	close(release)
}

func TestConcurrentCounter(t *testing.T) {
	const (
		workers = 8
		perW    = 500
	)
	s := New()
	counter := NewTVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s.Atomic(func(tx *Tx) {
					counter.Set(tx, counter.Get(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := counter.Load(); got != workers*perW {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*perW)
	}
	if s.Commits() != workers*perW {
		t.Fatalf("Commits = %d, want %d", s.Commits(), workers*perW)
	}
}

// TestBankInvariant: concurrent transfers between accounts must conserve
// the total, and concurrent audits must always see the full total (snapshot
// isolation of the read set).
func TestBankInvariant(t *testing.T) {
	const (
		accounts = 8
		initial  = 1000
		transfer = 3
		workers  = 4
		perW     = 300
	)
	s := New()
	acct := make([]*TVar[int], accounts)
	for i := range acct {
		acct[i] = NewTVar(initial)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			from, to := seed%accounts, (seed+1)%accounts
			for i := 0; i < perW; i++ {
				s.Atomic(func(tx *Tx) {
					f := acct[from].Get(tx)
					acct[from].Set(tx, f-transfer)
					acct[to].Set(tx, acct[to].Get(tx)+transfer)
				})
				from, to = (from+3)%accounts, (to+5)%accounts
			}
		}(w)
	}
	// A concurrent auditor: every transactional snapshot must add up to the
	// invariant total.
	auditErr := make(chan int, 1)
	stop := make(chan struct{})
	auditDone := make(chan struct{})
	go func() {
		defer close(auditDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			total := 0
			s.Atomic(func(tx *Tx) {
				total = 0
				for _, a := range acct {
					total += a.Get(tx)
				}
			})
			if total != accounts*initial {
				auditErr <- total
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-auditDone
	select {
	case total := <-auditErr:
		t.Fatalf("audit saw inconsistent total %d, want %d", total, accounts*initial)
	default:
	}
	total := 0
	for _, a := range acct {
		total += a.Load()
	}
	if total != accounts*initial {
		t.Fatalf("final total = %d, want %d", total, accounts*initial)
	}
}

// TestConsistentPairs: two TVars always updated together must never be
// observed unequal inside a transaction.
func TestConsistentPairs(t *testing.T) {
	s := New()
	a := NewTVar(0)
	b := NewTVar(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			s.Atomic(func(tx *Tx) {
				a.Set(tx, i)
				b.Set(tx, i)
			})
		}
		close(stop)
	}()
	for {
		select {
		case <-stop:
			wg.Wait()
			return
		default:
		}
		var av, bv int
		s.Atomic(func(tx *Tx) {
			av = a.Get(tx)
			bv = b.Get(tx)
		})
		if av != bv {
			t.Fatalf("torn read: a=%d b=%d", av, bv)
		}
	}
}

func TestAbortsAreCounted(t *testing.T) {
	const workers = 8
	s := New()
	x := NewTVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s.Atomic(func(tx *Tx) {
					x.Set(tx, x.Get(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	// With 8 threads hammering one TVar some attempts must have aborted.
	// (Not guaranteed in theory, overwhelmingly likely in practice; treat
	// zero aborts as suspicious only alongside a wrong count.)
	if x.Load() != workers*300 {
		t.Fatalf("counter = %d, want %d", x.Load(), workers*300)
	}
	t.Logf("commits=%d aborts=%d", s.Commits(), s.Aborts())
}

func TestUserPanicPropagates(t *testing.T) {
	s := New()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	s.Atomic(func(tx *Tx) {
		panic("boom")
	})
}

func TestGenericTVarTypes(t *testing.T) {
	s := New()
	str := NewTVar("hello")
	pair := NewTVar([2]int{1, 2})
	s.Atomic(func(tx *Tx) {
		str.Set(tx, str.Get(tx)+" world")
		p := pair.Get(tx)
		p[1] = 9
		pair.Set(tx, p)
	})
	if got := str.Load(); got != "hello world" {
		t.Fatalf("str = %q", got)
	}
	if got := pair.Load(); got != [2]int{1, 9} {
		t.Fatalf("pair = %v", got)
	}
}

func TestReadOnlyTransactionCommits(t *testing.T) {
	s := New()
	x := NewTVar(5)
	sum := 0
	for i := 0; i < 10; i++ {
		s.Atomic(func(tx *Tx) {
			sum += x.Get(tx)
		})
	}
	// Note sum accumulation relies on each read-only attempt committing
	// first try in the absence of writers.
	if sum != 50 {
		t.Fatalf("sum = %d, want 50", sum)
	}
	if s.Aborts() != 0 {
		t.Fatalf("read-only transactions aborted %d times with no writers", s.Aborts())
	}
}

// TestUpdateAgainstTransactions: one-location commits and two-location
// transactions on the same variables lose no update, every auditing
// transaction sees the pair equal, and each completed operation is one
// commit. A nil return leaves the variable and the clock alone.
func TestUpdateAgainstTransactions(t *testing.T) {
	const (
		workers = 4
		perW    = 500
	)
	s := New()
	x, y := NewTVar(0), NewTVar(0)
	bump := func(old *int) *int { next := *old + 1; return &next }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if (w+i)%2 == 0 {
					x.Update(s, bump)
					continue
				}
				s.Atomic(func(tx *Tx) {
					if x.Get(tx) < y.Get(tx) {
						t.Error("audit saw y ahead of x")
					}
					x.Set(tx, x.Get(tx)+1)
					y.Set(tx, y.Get(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	if gx, gy := x.Load(), y.Load(); gx != workers*perW || gy != workers*perW/2 {
		t.Fatalf("x, y = %d, %d, want %d, %d (lost updates)", gx, gy, workers*perW, workers*perW/2)
	}
	if s.Commits() != workers*perW {
		t.Fatalf("Commits = %d, want %d", s.Commits(), workers*perW)
	}
	clock := s.clock.Load()
	x.Update(s, func(*int) *int { return nil })
	if x.Load() != workers*perW || s.clock.Load() != clock || x.meta.Load()&lockedBit != 0 {
		t.Fatal("a nil Update changed the value, advanced the clock or kept the lock")
	}
}
