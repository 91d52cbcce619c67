package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

func newTestMQ(capacity int) (*MQPool, *Ledger) {
	l := NewLedger()
	return NewMQPool(MQConfig{Queues: 8, Capacity: capacity, DefaultLifetime: 64}, l), l
}

func TestQueueForLogarithmic(t *testing.T) {
	p, _ := newTestMQ(10)
	cases := []struct {
		pop  uint8
		want int
	}{
		{0, 0}, {1, 1}, {2, 1}, {3, 2}, {6, 2}, {7, 3}, {14, 3},
		{15, 4}, {31, 5}, {63, 6}, {127, 7}, {255, 7}, // clamped to top queue
	}
	for _, c := range cases {
		if got := p.queueFor(c.pop); got != c.want {
			t.Errorf("queueFor(%d) = %d, want %d", c.pop, got, c.want)
		}
	}
}

func TestMQInsertStartsAtBottomQueue(t *testing.T) {
	p, l := newTestMQ(10)
	// Even a popular value enters at the bottom queue (the paper: "inserts
	// to the dead-value pool always start from the bottom queue").
	for i := 0; i < 10; i++ {
		l.Bump(h(1))
	}
	p.Insert(h(1), 100, 1)
	lens := p.QueueLengths()
	if lens[0] != 1 {
		t.Fatalf("queue lengths = %v, want entry in Q0", lens)
	}
}

func TestMQPromotionOnAccess(t *testing.T) {
	p, l := newTestMQ(10)
	l.Bump(h(1))
	p.Insert(h(1), 100, 1)
	// Accesses promote one queue per touch as popularity allows.
	for i := 0; i < 5; i++ {
		l.Bump(h(1))
	}
	// pop is now 6 → home queue 2. Two touches should climb Q0→Q1→Q2.
	p.Insert(h(1), 101, 2)
	p.Insert(h(1), 102, 3)
	lens := p.QueueLengths()
	if lens[2] != 1 {
		t.Fatalf("queue lengths = %v, want entry in Q2 after two promotions", lens)
	}
	if p.Stats().Promoted != 2 {
		t.Fatalf("Promoted = %d, want 2", p.Stats().Promoted)
	}
}

func TestMQEvictsFromLowestQueueFirst(t *testing.T) {
	p, l := newTestMQ(2)
	// h(1) is popular and promoted to a higher queue; h(2) is a one-hit
	// wonder in Q0. Inserting h(3) must evict h(2), not the popular h(1) —
	// the central difference from plain LRU.
	for i := 0; i < 4; i++ {
		l.Bump(h(1))
	}
	p.Insert(h(1), 10, 1)
	p.Insert(h(1), 11, 2) // touch → promote out of Q0
	_, _ = p.Lookup(h(1), 3)
	l.Bump(h(2))
	p.Insert(h(2), 20, 4)
	l.Bump(h(3))
	p.Insert(h(3), 30, 5) // over capacity: evict from lowest queue
	if _, ok := p.Lookup(h(1), 6); !ok {
		t.Fatal("popular entry h(1) was evicted; MQ must protect it")
	}
	found2 := false
	if _, ok := p.GarbagePopularity(20); ok {
		found2 = true
	}
	if found2 {
		t.Fatal("h(2) in Q0 should have been evicted before h(1)")
	}
}

func TestMQDemotionOnExpiry(t *testing.T) {
	l := NewLedger()
	p := NewMQPool(MQConfig{Queues: 4, Capacity: 100, DefaultLifetime: 10}, l)
	for i := 0; i < 4; i++ {
		l.Bump(h(1))
	}
	p.Insert(h(1), 10, 1)
	p.Insert(h(1), 11, 2)
	p.Insert(h(1), 12, 3) // promoted to Q2 by now
	if lens := p.QueueLengths(); lens[2] != 1 {
		t.Fatalf("setup failed, queue lengths %v", lens)
	}
	// Advance the clock far past the expiration and insert unrelated
	// entries; each update runs the demotion sweep.
	l.Bump(h(2))
	p.Insert(h(2), 20, 100)
	if p.Stats().Demoted == 0 {
		t.Fatal("expired head was not demoted")
	}
	if lens := p.QueueLengths(); lens[2] != 0 {
		t.Fatalf("entry still in Q2 after expiry: %v", lens)
	}
}

func TestMQHottestIntervalTracking(t *testing.T) {
	l := NewLedger()
	p := NewMQPool(MQConfig{Queues: 4, Capacity: 100, DefaultLifetime: 999}, l)
	l.Bump(h(9))
	p.Insert(h(9), 90, 100) // becomes hottest, last access 100
	l.Bump(h(9))
	p.Insert(h(9), 91, 130) // interval = 30
	if p.hottestInterval != 30 {
		t.Fatalf("hottestInterval = %d, want 30", p.hottestInterval)
	}
	// A hotter value takes over without erasing the learned interval.
	for i := 0; i < 5; i++ {
		l.Bump(h(8))
	}
	p.Insert(h(8), 80, 140)
	if p.hottestHash != h(8) {
		t.Fatal("hotter value did not become hottest")
	}
	if p.hottestInterval != 30 {
		t.Fatalf("interval clobbered: %d", p.hottestInterval)
	}
}

func TestMQExpireUsesHottestInterval(t *testing.T) {
	l := NewLedger()
	p := NewMQPool(MQConfig{Queues: 4, Capacity: 100, DefaultLifetime: 50}, l)
	l.Bump(h(1))
	p.Insert(h(1), 10, 100)
	e := p.slab.entries[p.index[h(1)]]
	if e.expire != 150 {
		t.Fatalf("expire = %d, want now+lifetime = 150", e.expire)
	}
}

func TestMQCapacityHolds(t *testing.T) {
	p, l := newTestMQ(100)
	for i := uint64(0); i < 10000; i++ {
		l.Bump(h(i))
		p.Insert(h(i), ssd.PPN(i), Tick(i))
		if p.EntryCount() > 100 {
			t.Fatalf("entry count %d exceeds capacity 100", p.EntryCount())
		}
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
}

func TestMQQueueLengthsSumToEntryCount(t *testing.T) {
	p, l := newTestMQ(500)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		v := h(uint64(rng.Intn(300)))
		l.Bump(v)
		p.Insert(v, ssd.PPN(i), Tick(i))
		if rng.Intn(3) == 0 {
			p.Lookup(h(uint64(rng.Intn(300))), Tick(i))
		}
	}
	sum := 0
	for _, n := range p.QueueLengths() {
		sum += n
	}
	if sum != p.EntryCount() {
		t.Fatalf("queue lengths sum %d != entry count %d", sum, p.EntryCount())
	}
}

// checkMQInvariants verifies the structural consistency of the pool:
// every indexed entry is in exactly one queue, the PPN reverse index agrees
// with entry page lists, and the page count matches.
func checkMQInvariants(t *testing.T, p *MQPool) {
	t.Helper()
	pages := 0
	seen := make(map[ssd.PPN]bool)
	inQueues := 0
	for q := range p.queues {
		for i := p.queues[q].head; i != nilSlot; i = p.slab.entries[i].next {
			e := &p.slab.entries[i]
			inQueues++
			if int(e.queue) != q {
				t.Fatalf("entry %v thinks it is in Q%d but lives in Q%d", e.hash, e.queue, q)
			}
			if got, ok := p.index[e.hash]; !ok || got != i {
				t.Fatalf("entry %v not in index", e.hash)
			}
			ppns := pageListOf(t, &p.pages, i, e.pages)
			if len(ppns) == 0 {
				t.Fatalf("entry %v has no pages but is pooled", e.hash)
			}
			for _, ppn := range ppns {
				if seen[ppn] {
					t.Fatalf("PPN %d appears twice", ppn)
				}
				seen[ppn] = true
				if p.pages.slotOf(ppn) != i {
					t.Fatalf("reverse index for PPN %d wrong", ppn)
				}
				pages++
			}
		}
	}
	if inQueues != len(p.index) {
		t.Fatalf("queues hold %d entries, index %d", inQueues, len(p.index))
	}
	if reverse := pooledNodes(&p.pages); pages != p.pages.n || pages != reverse {
		t.Fatalf("page count mismatch: walked=%d cached=%d reverse=%d", pages, p.pages.n, reverse)
	}
}

// pageListOf walks the page list l of entry slot, checking that every node
// names slot as its owner, that back-links mirror forward links and that
// the list's counter matches; it returns the pages oldest first.
func pageListOf(t *testing.T, x *pageIndex, slot int32, l pageList) []ssd.PPN {
	t.Helper()
	var out []ssd.PPN
	prev := ssd.InvalidPPN
	for ppn := l.head; ppn != ssd.InvalidPPN; {
		if int(l.n) < len(out) {
			t.Fatalf("slot %d: page list longer than its counter %d (cycle?)", slot, l.n)
		}
		nd := x.nodes.Get(int64(ppn))
		if nd.slot != slot {
			t.Fatalf("page %d on slot %d's list names slot %d", ppn, slot, nd.slot)
		}
		if nd.prev != prev {
			t.Fatalf("page %d: back-link %d, want %d", ppn, nd.prev, prev)
		}
		out = append(out, ppn)
		prev, ppn = ppn, nd.next
	}
	if prev != l.tail || int(l.n) != len(out) {
		t.Fatalf("slot %d: walked %d pages ending at %d, list says %d ending at %d",
			slot, len(out), prev, l.n, l.tail)
	}
	return out
}

// pooledNodes counts the reverse-index nodes that claim an owner.
func pooledNodes(x *pageIndex) int {
	n := 0
	x.nodes.ForEach(func(_ int64, nd pageNode) {
		if nd.slot != nilSlot {
			n++
		}
	})
	return n
}

func TestMQInvariantsUnderRandomOps(t *testing.T) {
	l := NewLedger()
	p := NewMQPool(MQConfig{Queues: 6, Capacity: 64, DefaultLifetime: 32}, l)
	rng := rand.New(rand.NewSource(99))
	nextPPN := ssd.PPN(1)
	var pooled []ssd.PPN
	for i := 0; i < 30000; i++ {
		v := h(uint64(rng.Intn(150)))
		switch rng.Intn(4) {
		case 0, 1:
			l.Bump(v)
			p.Insert(v, nextPPN, Tick(i))
			pooled = append(pooled, nextPPN)
			nextPPN++
		case 2:
			l.Bump(v)
			p.Lookup(v, Tick(i))
		default:
			if len(pooled) > 0 {
				idx := rng.Intn(len(pooled))
				p.Drop(pooled[idx])
				pooled = append(pooled[:idx], pooled[idx+1:]...)
			}
		}
		if i%500 == 0 {
			checkMQInvariants(t, p)
		}
	}
	checkMQInvariants(t, p)
}

func TestMQOutperformsLRUOnSkewedWorkload(t *testing.T) {
	// The motivating claim (Fig 6 → Section III-A): with popularity-skewed
	// garbage, MQ retains popular zombies and achieves a higher revival
	// hit rate than plain LRU at the same capacity.
	// Drive each pool through the FTL write path: overwriting an LBA kills
	// its old value (Insert) and the new value tries to revive a zombie
	// (Lookup). Popular values accumulate copies across LBAs, which is
	// what MQ's promotion protects.
	type page struct {
		val trace.Hash
		ppn ssd.PPN
	}
	run := func(p Pool, l *Ledger) float64 {
		rng := rand.New(rand.NewSource(5))
		valZipf := rand.NewZipf(rng, 1.1, 1, 9999)
		lbaZipf := rand.NewZipf(rng, 1.2, 1, 3999)
		store := make(map[uint64]page)
		nextPPN := ssd.PPN(0)
		now := Tick(0)
		for i := 0; i < 300000; i++ {
			now++
			lba := lbaZipf.Uint64()
			v := h(valZipf.Uint64())
			l.Bump(v)
			if old, ok := store[lba]; ok {
				p.Insert(old.val, old.ppn, now) // death of the old copy
			}
			if ppn, ok := p.Lookup(v, now); ok {
				store[lba] = page{val: v, ppn: ppn} // revival
			} else {
				store[lba] = page{val: v, ppn: nextPPN}
				nextPPN++
			}
		}
		return p.Stats().HitRate()
	}
	mqLedger := NewLedger()
	mq := NewMQPool(MQConfig{Queues: 8, Capacity: 400, DefaultLifetime: 1024}, mqLedger)
	lruLedger := NewLedger()
	lru := NewLRUPool(400, lruLedger)
	mqRate := run(mq, mqLedger)
	lruRate := run(lru, lruLedger)
	if mqRate <= lruRate {
		t.Errorf("MQ hit rate %.3f not better than LRU %.3f on skewed workload", mqRate, lruRate)
	}
}

func TestMQCapacityPropertyUnderQuickOps(t *testing.T) {
	// Property: whatever the op sequence, the entry count never exceeds
	// capacity and Len() never goes negative.
	f := func(ops []uint16) bool {
		l := NewLedger()
		p := NewMQPool(MQConfig{Queues: 4, Capacity: 32, DefaultLifetime: 16}, l)
		now := Tick(0)
		for _, op := range ops {
			now++
			v := h(uint64(op % 97))
			switch op % 3 {
			case 0, 1:
				l.Bump(v)
				p.Insert(v, ssd.PPN(op)+ssd.PPN(now<<16), now)
			default:
				p.Lookup(v, now)
			}
			if p.EntryCount() > 32 || p.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
