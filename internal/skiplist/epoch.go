package skiplist

import (
	"sync/atomic"

	"amp/internal/epoch"
)

// Pool layout of EpochSkipList's reclamation domain: pool 0 recycles the
// (successor, marked) pairs; pool 1+h recycles nodes whose tower top
// level is h, so a recycled node always has the right height.
const esRefPool = 0

func esNodePool(topLevel int) int { return 1 + topLevel }

// esNode state word: a node may be retired only when the adder has
// finished linking (doneBit) and every level it was linked at has been
// snipped back out — linked count (bits 0..7) equals unlinked count
// (bits 8..15). retiredBit is claimed by exactly one CAS winner.
const (
	esLinkedInc   = 1
	esUnlinkedInc = 1 << 8
	esCountMask   = 0xff
	esDoneBit     = 1 << 16
	esRetiredBit  = 1 << 17
)

type esRef struct {
	node   *esNode
	marked bool
}

type esNode struct {
	key      int
	topLevel int
	state    atomic.Uint32
	next     []atomic.Pointer[esRef]
}

// EpochSkipList is the nonblocking skiplist of §14.4 with epoch-based
// reclamation (compare LockFreeSkipList, which leans on the GC). Nodes
// and (successor, marked) pairs are recycled through an epoch.Domain:
// every published pair is installed by one successful CAS and retired by
// the one successful CAS that displaces it, except a node's final
// marked pairs, which are frozen forever (no CAS ever succeeds on a
// marked ref) and are retired together with the node itself.
//
// The retirement condition needs care that the flat list does not:
// a lagging Add may link a node into a shortcut level after a
// concurrent Remove has already marked and unlinked everything linked
// so far. The node's state word therefore counts successful link and
// snip CASes per node, and retirement waits for doneBit (adder finished
// or abandoned linking) plus linked == unlinked. Because marking is
// strictly top-down and level 0 is marked last, every level's ref is
// frozen by the time the condition holds, making the winner's sweep of
// next[0..topLevel] race-free.
type EpochSkipList struct {
	dom  *epoch.Domain
	head *esNode
	tail *esNode
}

var _ Set = (*EpochSkipList)(nil)

// NewEpochSkipList returns an empty set with its own reclamation domain.
func NewEpochSkipList() *EpochSkipList {
	head := &esNode{key: KeyMin, topLevel: maxHeight - 1, next: make([]atomic.Pointer[esRef], maxHeight)}
	tail := &esNode{key: KeyMax, topLevel: maxHeight - 1, next: make([]atomic.Pointer[esRef], maxHeight)}
	emptyTail := &esRef{}
	for i := range tail.next {
		tail.next[i].Store(emptyTail)
	}
	for i := range head.next {
		head.next[i].Store(&esRef{node: tail})
	}
	return &EpochSkipList{dom: epoch.NewDomain(1 + maxHeight), head: head, tail: tail}
}

// Domain exposes the reclamation domain for diagnostics and the server's
// epoch-pin leak tests.
func (s *EpochSkipList) Domain() *epoch.Domain { return s.dom }

// ref returns a recycled (or fresh) pair set to (n, marked); it is
// exclusively owned until published by a successful CAS.
func (s *EpochSkipList) ref(slot *epoch.Slot, n *esNode, marked bool) *esRef {
	if r := slot.Alloc(esRefPool); r != nil {
		ref := r.(*esRef)
		ref.node, ref.marked = n, marked
		return ref
	}
	return &esRef{node: n, marked: marked}
}

// node returns a recycled (or fresh) node of exactly the given height
// with a zeroed state word; next pointers are stored by the caller.
func (s *EpochSkipList) node(slot *epoch.Slot, x, topLevel int) *esNode {
	if r := slot.Alloc(esNodePool(topLevel)); r != nil {
		n := r.(*esNode)
		n.key = x
		n.state.Store(0)
		return n
	}
	return &esNode{key: x, topLevel: topLevel, next: make([]atomic.Pointer[esRef], topLevel+1)}
}

// freeNode returns a never-published node and its staged refs.
func (s *EpochSkipList) freeNode(slot *epoch.Slot, n *esNode) {
	for i := 0; i <= n.topLevel; i++ {
		slot.Free(esRefPool, n.next[i].Load())
	}
	slot.Free(esNodePool(n.topLevel), n)
}

// unlinked records one level snipped out and retires if that was the
// last obligation.
func (s *EpochSkipList) unlinked(slot *epoch.Slot, n *esNode) {
	n.state.Add(esUnlinkedInc)
	s.maybeRetire(slot, n)
}

// maybeRetire claims and performs the node's retirement when the state
// condition holds. All of the node's refs are frozen (marked) at that
// point, so sweeping them is safe.
func (s *EpochSkipList) maybeRetire(slot *epoch.Slot, n *esNode) {
	for {
		st := n.state.Load()
		if st&esDoneBit == 0 || st&esRetiredBit != 0 || st&esCountMask != (st>>8)&esCountMask {
			return
		}
		if n.state.CompareAndSwap(st, st|esRetiredBit) {
			for i := 0; i <= n.topLevel; i++ {
				slot.Retire(esRefPool, n.next[i].Load())
			}
			slot.Retire(esNodePool(n.topLevel), n)
			return
		}
	}
}

// find locates the per-level windows around key, snipping marked nodes
// it passes (each successful snip retires the displaced pair and credits
// the victim's unlink count), and reports bottom-level presence.
func (s *EpochSkipList) find(slot *epoch.Slot, key int, preds, succs *[maxHeight]*esNode) bool {
retry:
	for {
		pred := s.head
		var curr *esNode
		for level := maxHeight - 1; level >= 0; level-- {
			curr = pred.next[level].Load().node
			for {
				succRef := curr.next[level].Load()
				for succRef.marked {
					expected := pred.next[level].Load()
					if expected.node != curr || expected.marked {
						continue retry
					}
					snip := s.ref(slot, succRef.node, false)
					if !pred.next[level].CompareAndSwap(expected, snip) {
						slot.Free(esRefPool, snip)
						continue retry
					}
					slot.Retire(esRefPool, expected)
					s.unlinked(slot, curr)
					curr = succRef.node
					succRef = curr.next[level].Load()
				}
				if curr.key < key {
					pred = curr
					curr = succRef.node
				} else {
					break
				}
			}
			preds[level] = pred
			succs[level] = curr
		}
		return curr.key == key
	}
}

// Add inserts x, reporting whether it was absent. The level-0 link CAS
// is the linearization point; shortcut levels are linked afterwards,
// each success crediting the node's link count, and doneBit marks the
// end of linking whether it completed or was cut short by a remover.
func (s *EpochSkipList) Add(x int) bool {
	checkKey(x)
	slot := s.dom.Pin()
	defer s.dom.Unpin(slot)
	topLevel := randomLevel()
	var preds, succs [maxHeight]*esNode
	for {
		if s.find(slot, x, &preds, &succs) {
			return false
		}
		node := s.node(slot, x, topLevel)
		for level := 0; level <= topLevel; level++ {
			node.next[level].Store(s.ref(slot, succs[level], false))
		}
		pred, succ := preds[0], succs[0]
		expected := pred.next[0].Load()
		if expected.node != succ || expected.marked {
			s.freeNode(slot, node)
			continue
		}
		install := s.ref(slot, node, false)
		if !pred.next[0].CompareAndSwap(expected, install) {
			slot.Free(esRefPool, install)
			s.freeNode(slot, node)
			continue
		}
		slot.Retire(esRefPool, expected)
		node.state.Add(esLinkedInc)

		// Link the shortcut levels.
	linking:
		for level := 1; level <= topLevel; level++ {
			for {
				cur := node.next[level].Load()
				if cur.marked {
					break linking // node is being removed; stop linking
				}
				pred, succ = preds[level], succs[level]
				if cur.node != succ {
					nref := s.ref(slot, succ, false)
					if !node.next[level].CompareAndSwap(cur, nref) {
						slot.Free(esRefPool, nref)
						continue // re-read our own pointer
					}
					slot.Retire(esRefPool, cur)
				}
				expected := pred.next[level].Load()
				if expected.node == succ && !expected.marked {
					install := s.ref(slot, node, false)
					if pred.next[level].CompareAndSwap(expected, install) {
						slot.Retire(esRefPool, expected)
						node.state.Add(esLinkedInc)
						break
					}
					slot.Free(esRefPool, install)
				}
				s.find(slot, x, &preds, &succs) // refresh the windows and retry
			}
		}
		node.state.Add(esDoneBit)
		s.maybeRetire(slot, node)
		return true
	}
}

// Remove deletes x, reporting whether it was present. Marking the
// level-0 next pointer is the linearization point; marking runs
// strictly top-down so that a level-0 mark implies every ref is frozen.
func (s *EpochSkipList) Remove(x int) bool {
	checkKey(x)
	slot := s.dom.Pin()
	defer s.dom.Unpin(slot)
	var preds, succs [maxHeight]*esNode
	for {
		if !s.find(slot, x, &preds, &succs) {
			return false
		}
		victim := succs[0]
		// Mark the shortcut levels top-down.
		for level := victim.topLevel; level >= 1; level-- {
			for {
				ref := victim.next[level].Load()
				if ref.marked {
					break
				}
				m := s.ref(slot, ref.node, true)
				if victim.next[level].CompareAndSwap(ref, m) {
					slot.Retire(esRefPool, ref)
					break
				}
				slot.Free(esRefPool, m)
			}
		}
		// Mark level 0: whoever wins this CAS owns the removal.
		for {
			ref := victim.next[0].Load()
			if ref.marked {
				return false // someone else removed it first
			}
			m := s.ref(slot, ref.node, true)
			if victim.next[0].CompareAndSwap(ref, m) {
				slot.Retire(esRefPool, ref)
				s.find(slot, x, &preds, &succs) // physically snip, best effort
				return true
			}
			slot.Free(esRefPool, m)
		}
	}
}

// Contains descends without snipping, skipping marked nodes
// (Fig. 14.16). It pins for the whole traversal: the frozen refs it
// follows through marked nodes may already be retired.
func (s *EpochSkipList) Contains(x int) bool {
	checkKey(x)
	slot := s.dom.Pin()
	defer s.dom.Unpin(slot)
	pred := s.head
	var curr *esNode
	for level := maxHeight - 1; level >= 0; level-- {
		curr = pred.next[level].Load().node
		for {
			succRef := curr.next[level].Load()
			for succRef.marked {
				curr = succRef.node
				succRef = curr.next[level].Load()
			}
			if curr.key < x {
				pred = curr
				curr = succRef.node
			} else {
				break
			}
		}
	}
	return curr.key == x && !curr.next[0].Load().marked
}

// Min returns the smallest key, walking the bottom level under a pin.
func (s *EpochSkipList) Min() (int, bool) {
	slot := s.dom.Pin()
	defer s.dom.Unpin(slot)
	curr := s.head.next[0].Load().node
	for curr != s.tail {
		if !curr.next[0].Load().marked {
			return curr.key, true
		}
		curr = curr.next[0].Load().node
	}
	return 0, false
}

// Range is Ascend under the enumeration name the server's snapshot and
// reshard paths look for.
func (s *EpochSkipList) Range(f func(x int) bool) { s.Ascend(f) }

// Ascend calls f on each key in ascending order, skipping logically
// deleted nodes, until f returns false. The whole traversal runs under
// one pin, so a slow f delays reclamation (but never correctness).
func (s *EpochSkipList) Ascend(f func(key int) bool) {
	slot := s.dom.Pin()
	defer s.dom.Unpin(slot)
	curr := s.head.next[0].Load().node
	for curr != s.tail {
		ref := curr.next[0].Load()
		if !ref.marked {
			if !f(curr.key) {
				return
			}
		}
		curr = ref.node
	}
}
