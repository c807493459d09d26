package stm

import (
	"sync"
	"testing"
)

// ofUniverses returns one OFSTM per contention-management policy.
func ofUniverses() map[string]*OFSTM {
	return map[string]*OFSTM{
		"aggressive": NewOF(),
		"backoff": NewOF(WithContentionManager(func() ContentionManager {
			return &BackoffManager{}
		})),
	}
}

func TestOFSequential(t *testing.T) {
	for name, s := range ofUniverses() {
		t.Run(name, func(t *testing.T) {
			x := NewOFTVar(10)
			s.Atomic(func(tx *OFTx) {
				x.Set(tx, x.Get(tx)+5)
			})
			if got := x.Load(); got != 15 {
				t.Fatalf("Load = %d, want 15", got)
			}
		})
	}
}

func TestOFReadYourOwnWrites(t *testing.T) {
	s := NewOF()
	x := NewOFTVar(0)
	s.Atomic(func(tx *OFTx) {
		x.Set(tx, 7)
		if got := x.Get(tx); got != 7 {
			t.Errorf("Get after Set = %d, want 7", got)
		}
		x.Set(tx, x.Get(tx)+1)
	})
	if got := x.Load(); got != 8 {
		t.Fatalf("Load = %d, want 8", got)
	}
}

func TestOFAbortRollsBack(t *testing.T) {
	s := NewOF()
	x := NewOFTVar(1)
	// An attempt that writes and is then aborted by a rival must leave the
	// committed value untouched: simulate by aborting the tx mid-flight.
	first := true
	s.Atomic(func(tx *OFTx) {
		x.Set(tx, 99)
		if first {
			first = false
			tx.abortRemote() // a rival kills us
			// The next Get or Set must notice and unwind.
			x.Get(tx)
			t.Error("aborted transaction kept running")
		}
	})
	if got := x.Load(); got != 99 {
		t.Fatalf("Load = %d, want 99 (from the successful retry)", got)
	}
	if s.Aborts() == 0 {
		t.Fatal("the killed attempt was not counted as an abort")
	}
}

func TestOFConcurrentCounter(t *testing.T) {
	const (
		workers = 6
		perW    = 300
	)
	for name, s := range ofUniverses() {
		t.Run(name, func(t *testing.T) {
			counter := NewOFTVar(0)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						s.Atomic(func(tx *OFTx) {
							counter.Set(tx, counter.Get(tx)+1)
						})
					}
				}()
			}
			wg.Wait()
			if got := counter.Load(); got != workers*perW {
				t.Fatalf("counter = %d, want %d (lost updates)", got, workers*perW)
			}
		})
	}
}

func TestOFBankInvariant(t *testing.T) {
	const (
		accounts = 8
		initial  = 500
		workers  = 4
		perW     = 200
	)
	s := NewOF()
	acct := make([]*OFTVar[int], accounts)
	for i := range acct {
		acct[i] = NewOFTVar(initial)
	}
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
			s.Atomic(func(tx *OFTx) {
				total = 0
				for _, a := range acct {
					total += a.Get(tx)
				}
			})
			if total != accounts*initial {
				select {
				case auditErr <- total:
				default:
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			from, to := seed%accounts, (seed+3)%accounts
			for i := 0; i < perW; i++ {
				s.Atomic(func(tx *OFTx) {
					f := acct[from].Get(tx)
					acct[from].Set(tx, f-1)
					acct[to].Set(tx, acct[to].Get(tx)+1)
				})
				from, to = (from+1)%accounts, (to+5)%accounts
				if from == to {
					to = (to + 1) % accounts
				}
			}
		}(w)
	}
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

func TestOFConsistentPairs(t *testing.T) {
	s := NewOF()
	a := NewOFTVar(0)
	b := NewOFTVar(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 1500; i++ {
			s.Atomic(func(tx *OFTx) {
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
		s.Atomic(func(tx *OFTx) {
			av = a.Get(tx)
			bv = b.Get(tx)
		})
		if av != bv {
			t.Fatalf("torn read: a=%d b=%d", av, bv)
		}
	}
}

func TestOFUserPanicPropagates(t *testing.T) {
	s := NewOF()
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	s.Atomic(func(tx *OFTx) {
		panic("kaboom")
	})
}

func TestOFLoadSpinsOutWriters(t *testing.T) {
	s := NewOF()
	x := NewOFTVar(3)
	// Load on a variable mid-write must return a committed value.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s.Atomic(func(tx *OFTx) {
				x.Set(tx, x.Get(tx)+1)
			})
		}
	}()
	last := 0
	for i := 0; i < 2000; i++ {
		v := x.Load()
		if v < last {
			t.Fatalf("Load went backward: %d after %d", v, last)
		}
		last = v
	}
	wg.Wait()
	if got := x.Load(); got != 503 {
		t.Fatalf("final Load = %d, want 503", got)
	}
}

// TestRereadAfterRivalCommit interleaves two transactions by hand, no
// timing: the first attempt reads x, a rival commits a new x, and the
// attempt reads x again. Neither engine may hand an attempt two
// different values of one variable; the attempt must abort and the retry
// see the rival's value twice. DSTM detects it by checking a re-read
// against the version the first read recorded, TL2 by its readVersion
// bound.
func TestRereadAfterRivalCommit(t *testing.T) {
	cases := map[string]func() (pairs [][2]int, aborts int64){
		"dstm": func() (pairs [][2]int, aborts int64) {
			s, x := NewOF(), NewOFTVar(0)
			s.Atomic(func(tx *OFTx) {
				first := x.Get(tx)
				if first == 0 { // first attempt only: the retry sees 1
					s.Atomic(func(rival *OFTx) { x.Set(rival, 1) })
				}
				pairs = append(pairs, [2]int{first, x.Get(tx)})
			})
			return pairs, s.Aborts()
		},
		"tl2": func() (pairs [][2]int, aborts int64) {
			s, x := New(), NewTVar(0)
			s.Atomic(func(tx *Tx) {
				first := x.Get(tx)
				if first == 0 {
					s.Atomic(func(rival *Tx) { x.Set(rival, 1) })
				}
				pairs = append(pairs, [2]int{first, x.Get(tx)})
			})
			return pairs, s.Aborts()
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			pairs, aborts := run()
			if len(pairs) != 1 || pairs[0] != [2]int{1, 1} {
				t.Errorf("attempts that read x twice saw %v, want only [1 1]", pairs)
			}
			if aborts != 1 {
				t.Errorf("aborts = %d, want 1 (the attempt the rival overtook)", aborts)
			}
		})
	}
}

// TestOFUpdateAgainstTransactions is TestUpdateAgainstTransactions for the
// obstruction-free engine's one-object commit.
func TestOFUpdateAgainstTransactions(t *testing.T) {
	const (
		workers = 4
		perW    = 300
	)
	for name, s := range ofUniverses() {
		t.Run(name, func(t *testing.T) {
			x, y := NewOFTVar(0), NewOFTVar(0)
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
						s.Atomic(func(tx *OFTx) {
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
			x.Update(s, func(*int) *int { return nil })
			if x.Load() != workers*perW {
				t.Fatal("a nil Update changed the value")
			}
		})
	}
}
