package core

import (
	"math/rand"
	"testing"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// checkMQStructure extends mq_test.go's checkMQInvariants with the
// capacity bound, intrusive-list integrity and slab accounting:
//
//  1. the entry count never exceeds capacity;
//  2. every queue's linked list is well formed and agrees with its length
//     counter, and every entry on queue q records queue == q;
//  3. the hash index and the queues hold exactly the same entries;
//  4. the reverse PPN index is consistent with queue contents: every pooled
//     PPN maps back to the entry listing it, no PPN appears in two entries,
//     every entry's page list is well formed, and the pooled-page counter
//     matches;
//  5. every slab slot is either live on a queue or on the free list.
func checkMQStructure(t *testing.T, p *MQPool) {
	t.Helper()
	if len(p.index) > p.cfg.Capacity {
		t.Fatalf("entry count %d exceeds capacity %d", len(p.index), p.cfg.Capacity)
	}
	inQueues := 0
	pages := 0
	seen := make(map[ssd.PPN]trace.Hash)
	for q := range p.queues {
		n := 0
		prev := nilSlot
		for i := p.queues[q].head; i != nilSlot; i = p.slab.entries[i].next {
			e := &p.slab.entries[i]
			if e.prev != prev {
				t.Fatalf("queue %d: broken back-link at entry %v", q, e.hash)
			}
			if int(e.queue) != q {
				t.Fatalf("entry %v on queue %d records queue %d", e.hash, q, e.queue)
			}
			if got, ok := p.index[e.hash]; !ok || got != i {
				t.Fatalf("queue %d entry %v not in the hash index", q, e.hash)
			}
			ppns := pageListOf(t, &p.pages, i, e.pages)
			if len(ppns) == 0 {
				t.Fatalf("entry %v lives in queue %d with no pooled pages", e.hash, q)
			}
			for _, ppn := range ppns {
				if other, dup := seen[ppn]; dup {
					t.Fatalf("PPN %d pooled under both %v and %v", ppn, other, e.hash)
				}
				seen[ppn] = e.hash
				if p.pages.slotOf(ppn) != i {
					t.Fatalf("reverse index of PPN %d does not point at the entry listing it", ppn)
				}
				pages++
			}
			prev = i
			n++
		}
		if prev != p.queues[q].tail {
			t.Fatalf("queue %d walk ends at slot %d, tail says %d", q, prev, p.queues[q].tail)
		}
		if n != p.queues[q].n {
			t.Fatalf("queue %d walk found %d entries, counter says %d", q, n, p.queues[q].n)
		}
		inQueues += n
	}
	if inQueues != len(p.index) {
		t.Fatalf("queues hold %d entries, index holds %d", inQueues, len(p.index))
	}
	if reverse := pooledNodes(&p.pages); pages != reverse || pages != p.pages.n {
		t.Fatalf("pooled pages: queues %d, reverse index %d, counter %d", pages, reverse, p.pages.n)
	}
	free := 0
	for i := p.slab.free; i != nilSlot; i = p.slab.entries[i].next {
		if free++; free > len(p.slab.entries) {
			t.Fatal("free list cycles")
		}
	}
	if free+inQueues != len(p.slab.entries) {
		t.Fatalf("slab holds %d slots: %d live + %d free", len(p.slab.entries), inQueues, free)
	}
}

// TestMQPoolPropertyInvariants drives randomized Insert/Lookup/Drop/Bump
// sequences against pools of several shapes and re-verifies every
// structural invariant after each operation. Seeded, so a failure replays.
func TestMQPoolPropertyInvariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  MQConfig
		seed int64
		ops  int
	}{
		{"tiny-capacity", MQConfig{Queues: 4, Capacity: 8, DefaultLifetime: 16}, 1, 4000},
		{"single-queue", MQConfig{Queues: 1, Capacity: 64, DefaultLifetime: 64}, 2, 4000},
		{"paper-shape", MQConfig{Queues: 8, Capacity: 256, DefaultLifetime: 512}, 3, 6000},
		{"churny-lifetime", MQConfig{Queues: 8, Capacity: 32, DefaultLifetime: 2}, 4, 6000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			ledger := NewLedger()
			p := NewMQPool(tc.cfg, ledger)
			nextPPN := ssd.PPN(0)
			var now Tick
			// A small hash universe forces collisions: multi-PPN entries,
			// revivals and re-inserts all get exercised.
			hashOf := func() trace.Hash { return trace.HashOfValue(uint64(rng.Intn(48))) }
			for i := 0; i < tc.ops; i++ {
				now += Tick(rng.Intn(4))
				switch op := rng.Intn(10); {
				case op < 5: // insert a fresh garbage page
					h := hashOf()
					ledger.Bump(h)
					p.Insert(h, nextPPN, now)
					nextPPN++
				case op < 8: // revive
					p.Lookup(hashOf(), now)
				case op < 9: // GC destroyed a pooled page (or a random miss)
					p.Drop(ssd.PPN(rng.Int63n(int64(nextPPN) + 1)))
				default: // popularity changes without pool activity
					ledger.Bump(hashOf())
				}
				checkMQStructure(t, p)
			}
			if p.Stats().Inserts == 0 || p.Stats().Hits == 0 {
				t.Fatalf("sequence exercised too little: %+v", p.Stats())
			}
		})
	}
}

// TestMQPoolLookupNeverReturnsDropped pins the Drop/Lookup interaction: a
// dropped PPN must never be revived later.
func TestMQPoolLookupNeverReturnsDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ledger := NewLedger()
	p := NewMQPool(MQConfig{Queues: 4, Capacity: 64, DefaultLifetime: 32}, ledger)
	dropped := make(map[ssd.PPN]bool)
	nextPPN := ssd.PPN(0)
	for i := 0; i < 6000; i++ {
		now := Tick(i)
		h := trace.HashOfValue(uint64(rng.Intn(32)))
		switch rng.Intn(3) {
		case 0:
			ledger.Bump(h)
			p.Insert(h, nextPPN, now)
			delete(dropped, nextPPN)
			nextPPN++
		case 1:
			if ppn, ok := p.Lookup(h, now); ok && dropped[ppn] {
				t.Fatalf("lookup revived dropped PPN %d", ppn)
			}
		case 2:
			ppn := ssd.PPN(rng.Int63n(int64(nextPPN) + 1))
			p.Drop(ppn)
			dropped[ppn] = true
		}
	}
}
