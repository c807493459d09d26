package mailbox

import (
	"sync"
	"testing"
)

// BenchmarkMailboxVsChan sets the shard mailbox — the mutex-guarded swap
// slice with the spin-then-park wait — beside a buffered Go channel,
// driven by the pattern a losing submitter produces (each producer
// publishes a value and kicks; one consumer drains them all). Pinned
// into the CI bench subset so the primitive is recorded alongside the
// end-to-end server number.
func BenchmarkMailboxVsChan(b *testing.B) {
	const capacity = 128

	b.Run("mailbox", func(b *testing.B) {
		m := New[int](capacity, DefaultSpinBudget)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := get(m); !ok {
					return
				}
			}
		}()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				put(m, i)
			}
		})
		m.Close()
		wg.Wait()
	})

	b.Run("chan", func(b *testing.B) {
		ch := make(chan int, capacity)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
			}
		}()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				ch <- i
			}
		})
		close(ch)
		wg.Wait()
	})
}
