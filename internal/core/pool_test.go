package core

import (
	"math/rand"
	"testing"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

func h(id uint64) trace.Hash { return trace.HashOfValue(id) }

func TestLedgerBumpAndSaturation(t *testing.T) {
	l := NewLedger()
	if l.Get(h(1)) != 0 {
		t.Fatal("fresh value must have popularity 0")
	}
	if got := l.Bump(h(1)); got != 1 {
		t.Fatalf("first Bump = %d, want 1", got)
	}
	for i := 0; i < 300; i++ {
		l.Bump(h(1))
	}
	if got := l.Get(h(1)); got != MaxPopularity {
		t.Fatalf("popularity = %d, want saturation at %d", got, MaxPopularity)
	}
	if l.Len() != 1 {
		t.Fatalf("ledger tracks %d values, want 1", l.Len())
	}
}

func TestPoolStatsHitRate(t *testing.T) {
	s := PoolStats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %g, want 0.75", got)
	}
	if (PoolStats{}).HitRate() != 0 {
		t.Error("empty stats HitRate must be 0")
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestEntryListOps(t *testing.T) {
	s := newSlab()
	l := emptyQueue
	a, b, c := s.alloc(0), s.alloc(0), s.alloc(0)
	s.pushTail(&l, a)
	s.pushTail(&l, b)
	s.pushTail(&l, c)
	if l.n != 3 || l.head != a || l.tail != c {
		t.Fatalf("list after pushes: n=%d head=%d tail=%d", l.n, l.head, l.tail)
	}
	s.moveToTail(&l, a)
	if l.head != b || l.tail != a {
		t.Fatal("moveToTail(head) wrong")
	}
	s.moveToTail(&l, a) // already tail: no-op
	if l.tail != a || l.n != 3 {
		t.Fatal("moveToTail(tail) must be a no-op")
	}
	s.remove(&l, b)
	if l.head != c || l.n != 2 {
		t.Fatal("remove(middle/head) wrong")
	}
	s.remove(&l, c)
	s.remove(&l, a)
	if l.head != nilSlot || l.tail != nilSlot || l.n != 0 {
		t.Fatal("list not empty after removing all")
	}
	// Freed slots are reused last-in first-out before the slab grows.
	s.release(a)
	s.release(c)
	if got := s.alloc(0); got != c {
		t.Fatalf("alloc after release = %d, want the last freed slot %d", got, c)
	}
	if got := s.alloc(0); got != a {
		t.Fatalf("second alloc = %d, want %d", got, a)
	}
	if got := s.alloc(0); got != 3 {
		t.Fatalf("alloc with an empty free list = %d, want fresh slot 3", got)
	}
}

// pools under test, constructed fresh, capacity in entries.
func testPools(capacity int) map[string]Pool {
	return map[string]Pool{
		"mq":       NewMQPool(MQConfig{Queues: 8, Capacity: capacity, DefaultLifetime: 64}, NewLedger()),
		"lru":      NewLRUPool(capacity, NewLedger()),
		"infinite": NewInfinitePool(NewLedger()),
	}
}

func TestPoolBasicInsertLookup(t *testing.T) {
	for name, p := range testPools(10) {
		t.Run(name, func(t *testing.T) {
			if _, ok := p.Lookup(h(1), 0); ok {
				t.Fatal("lookup in empty pool hit")
			}
			p.Insert(h(1), 100, 1)
			if p.Len() != 1 {
				t.Fatalf("Len = %d, want 1", p.Len())
			}
			ppn, ok := p.Lookup(h(1), 2)
			if !ok || ppn != 100 {
				t.Fatalf("Lookup = (%d,%v), want (100,true)", ppn, ok)
			}
			if p.Len() != 0 {
				t.Fatalf("Len after revive = %d, want 0", p.Len())
			}
			// A revived page is gone; a second lookup must miss.
			if _, ok := p.Lookup(h(1), 3); ok {
				t.Fatal("revived page still in pool")
			}
			st := p.Stats()
			if st.Hits != 1 || st.Misses != 2 || st.Inserts != 1 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestPoolMultipleCopiesReviveMostRecent(t *testing.T) {
	for name, p := range testPools(10) {
		t.Run(name, func(t *testing.T) {
			p.Insert(h(7), 10, 1)
			p.Insert(h(7), 20, 2)
			p.Insert(h(7), 30, 3)
			if p.Len() != 3 {
				t.Fatalf("Len = %d, want 3", p.Len())
			}
			ppn, ok := p.Lookup(h(7), 4)
			if !ok || ppn != 30 {
				t.Fatalf("first revive = %d, want most recent death 30", ppn)
			}
			ppn, _ = p.Lookup(h(7), 5)
			if ppn != 20 {
				t.Fatalf("second revive = %d, want 20", ppn)
			}
			ppn, _ = p.Lookup(h(7), 6)
			if ppn != 10 {
				t.Fatalf("third revive = %d, want 10", ppn)
			}
		})
	}
}

func TestPoolDrop(t *testing.T) {
	for name, p := range testPools(10) {
		t.Run(name, func(t *testing.T) {
			p.Insert(h(1), 10, 1)
			p.Insert(h(1), 20, 2)
			p.Drop(10)
			if p.Len() != 1 {
				t.Fatalf("Len after drop = %d, want 1", p.Len())
			}
			ppn, ok := p.Lookup(h(1), 3)
			if !ok || ppn != 20 {
				t.Fatalf("Lookup = (%d,%v), want (20,true)", ppn, ok)
			}
			p.Drop(999) // unknown PPN must be a no-op
			if p.Stats().Drops != 1 {
				t.Fatalf("Drops = %d, want 1", p.Stats().Drops)
			}
			// Dropping the last copy removes the entry entirely.
			p.Insert(h(2), 30, 4)
			p.Drop(30)
			if _, ok := p.Lookup(h(2), 5); ok {
				t.Fatal("entry survived dropping its only page")
			}
		})
	}
}

func TestPoolGarbagePopularity(t *testing.T) {
	build := map[string]func(*Ledger) Pool{
		"mq": func(l *Ledger) Pool {
			return NewMQPool(MQConfig{Queues: 8, Capacity: 10, DefaultLifetime: 64}, l)
		},
		"lru":      func(l *Ledger) Pool { return NewLRUPool(10, l) },
		"infinite": func(l *Ledger) Pool { return NewInfinitePool(l) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			ledger := NewLedger()
			p := mk(ledger)
			ledger.Bump(h(5))
			ledger.Bump(h(5))
			p.Insert(h(5), 50, 1)
			pop, ok := p.GarbagePopularity(50)
			if !ok || pop != 2 {
				t.Fatalf("GarbagePopularity = (%d,%v), want (2,true)", pop, ok)
			}
			if _, ok := p.GarbagePopularity(51); ok {
				t.Fatal("unknown PPN reported as pooled")
			}
		})
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := NewLRUPool(2, NewLedger())
	p.Insert(h(1), 10, 1)
	p.Insert(h(2), 20, 2)
	p.Insert(h(3), 30, 3) // evicts h(1), the LRU entry
	if _, ok := p.Lookup(h(1), 4); ok {
		t.Fatal("LRU entry h(1) not evicted")
	}
	if _, ok := p.Lookup(h(2), 5); !ok {
		t.Fatal("h(2) wrongly evicted")
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", p.Stats().Evictions)
	}
}

func TestLRURecencyRefreshOnInsertHit(t *testing.T) {
	p := NewLRUPool(2, NewLedger())
	p.Insert(h(1), 10, 1)
	p.Insert(h(2), 20, 2)
	p.Insert(h(1), 11, 3) // refreshes h(1)'s recency
	p.Insert(h(3), 30, 4) // must evict h(2), now the LRU
	if _, ok := p.Lookup(h(2), 5); ok {
		t.Fatal("h(2) should have been evicted")
	}
	if _, ok := p.Lookup(h(1), 6); !ok {
		t.Fatal("refreshed h(1) wrongly evicted")
	}
}

func TestInfinitePoolNeverEvicts(t *testing.T) {
	p := NewInfinitePool(NewLedger())
	for i := uint64(0); i < 100000; i++ {
		p.Insert(h(i), ssd.PPN(i), Tick(i))
	}
	if p.Len() != 100000 || p.EntryCount() != 100000 {
		t.Fatalf("Len=%d EntryCount=%d, want 100000", p.Len(), p.EntryCount())
	}
	if p.Stats().Evictions != 0 {
		t.Fatal("infinite pool evicted")
	}
	for i := uint64(0); i < 100000; i += 997 {
		if _, ok := p.Lookup(h(i), 0); !ok {
			t.Fatalf("lost value %d", i)
		}
	}
}

func TestConstructorPanicsOnBadInput(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("NewMQPool bad config", func() { NewMQPool(MQConfig{}, NewLedger()) })
	expectPanic("NewMQPool nil ledger", func() { NewMQPool(DefaultMQConfig(), nil) })
	expectPanic("NewLRUPool zero capacity", func() { NewLRUPool(0, NewLedger()) })
	expectPanic("NewLRUPool nil ledger", func() { NewLRUPool(1, nil) })
	expectPanic("NewInfinitePool nil ledger", func() { NewInfinitePool(nil) })
}

func TestMQConfigValidate(t *testing.T) {
	if err := DefaultMQConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []MQConfig{
		{Queues: 0, Capacity: 1, DefaultLifetime: 1},
		{Queues: 1, Capacity: 0, DefaultLifetime: 1},
		{Queues: 1, Capacity: 1, DefaultLifetime: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
		}
	}
}

// modelPool is a trivially correct unbounded reference; InfinitePool must
// match its hit/miss behaviour exactly.
type modelPool struct {
	m map[trace.Hash][]ssd.PPN
	r map[ssd.PPN]trace.Hash
}

func (m *modelPool) insert(hh trace.Hash, p ssd.PPN) {
	m.m[hh] = append(m.m[hh], p)
	m.r[p] = hh
}

func (m *modelPool) lookup(hh trace.Hash) (ssd.PPN, bool) {
	l := m.m[hh]
	if len(l) == 0 {
		return ssd.InvalidPPN, false
	}
	p := l[len(l)-1]
	m.m[hh] = l[:len(l)-1]
	delete(m.r, p)
	return p, true
}

func (m *modelPool) drop(p ssd.PPN) {
	hh, ok := m.r[p]
	if !ok {
		return
	}
	delete(m.r, p)
	l := m.m[hh]
	for i, x := range l {
		if x == p {
			m.m[hh] = append(l[:i], l[i+1:]...)
			return
		}
	}
}

func TestInfinitePoolMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := NewInfinitePool(NewLedger())
	model := &modelPool{m: map[trace.Hash][]ssd.PPN{}, r: map[ssd.PPN]trace.Hash{}}
	nextPPN := ssd.PPN(0)
	live := []ssd.PPN{}
	for i := 0; i < 50000; i++ {
		v := h(uint64(rng.Intn(200)))
		switch rng.Intn(3) {
		case 0:
			p.Insert(v, nextPPN, Tick(i))
			model.insert(v, nextPPN)
			live = append(live, nextPPN)
			nextPPN++
		case 1:
			got, gotOK := p.Lookup(v, Tick(i))
			want, wantOK := model.lookup(v)
			if gotOK != wantOK || got != want {
				t.Fatalf("op %d: Lookup = (%d,%v), model (%d,%v)", i, got, gotOK, want, wantOK)
			}
		default:
			if len(live) == 0 {
				continue
			}
			idx := rng.Intn(len(live))
			target := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			p.Drop(target)
			model.drop(target)
		}
		if p.Len() != len(model.r) {
			t.Fatalf("op %d: Len = %d, model %d", i, p.Len(), len(model.r))
		}
	}
}
