package wbuf

import (
	"testing"

	"zombiessd/internal/ftl"
	"zombiessd/internal/trace"
)

func h(id uint64) trace.Hash { return trace.HashOfValue(id) }

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := New(-1); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestPutGetCoalesce(t *testing.T) {
	b, _ := New(4)
	if _, _, ev := b.Put(1, h(1)); ev {
		t.Fatal("eviction below capacity")
	}
	got, ok := b.Get(1)
	if !ok || got != h(1) {
		t.Fatalf("Get = (%v,%v)", got, ok)
	}
	// Overwrite coalesces: same page, new content, no eviction.
	if _, _, ev := b.Put(1, h(2)); ev {
		t.Fatal("coalescing write evicted")
	}
	if got, _ := b.Get(1); got != h(2) {
		t.Fatalf("coalesced content = %v, want h(2)", got)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	st := b.Stats()
	if st.Puts != 2 || st.Coalesced != 1 || st.ReadHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Peek reads the same content without counting a hit.
	if got, ok := b.Peek(1); !ok || got != h(2) || b.Stats().ReadHits != 2 {
		t.Fatalf("Peek = %v, %v with %d read hits, want h(2), true, 2", got, ok, b.Stats().ReadHits)
	}
}

func TestEvictionOrderIsWriteLRU(t *testing.T) {
	b, _ := New(2)
	b.Put(1, h(1))
	b.Put(2, h(2))
	b.Put(1, h(11)) // refresh page 1's write recency
	lpn, hash, ev := b.Put(3, h(3))
	if !ev || lpn != 2 || hash != h(2) {
		t.Fatalf("evicted (%d,%v,%v), want page 2", lpn, hash, ev)
	}
	// Reads must NOT refresh write recency.
	b.Get(1) // page 1 is still most recently WRITTEN? no — 1 refreshed, 3 newest
	lpn, _, ev = b.Put(4, h(4))
	if !ev || lpn != 1 {
		t.Fatalf("evicted %d, want 1 (reads must not refresh write order)", lpn)
	}
}

func TestMissesAndUnknownGet(t *testing.T) {
	b, _ := New(2)
	if _, ok := b.Get(9); ok {
		t.Fatal("hit on empty buffer")
	}
}

func TestDrain(t *testing.T) {
	b, _ := New(4)
	b.Put(3, h(3))
	b.Put(1, h(1))
	b.Put(2, h(2))
	out := b.Drain()
	if len(out) != 3 {
		t.Fatalf("drained %d pages, want 3", len(out))
	}
	if out[0].LPN != 3 || out[1].LPN != 1 || out[2].LPN != 2 {
		t.Fatalf("drain order wrong: %+v", out)
	}
	if b.Len() != 0 {
		t.Fatal("buffer not empty after drain")
	}
	if _, ok := b.Get(1); ok {
		t.Fatal("drained page still readable")
	}
	// Buffer stays usable after drain.
	b.Put(7, h(7))
	if b.Len() != 1 {
		t.Fatal("buffer unusable after drain")
	}
}

func TestCapacityInvariantUnderChurn(t *testing.T) {
	b, _ := New(8)
	evictions := 0
	for i := 0; i < 10000; i++ {
		lpn := ftl.LPN(i % 37)
		if _, _, ev := b.Put(lpn, h(uint64(i))); ev {
			evictions++
		}
		if b.Len() > 8 {
			t.Fatalf("capacity exceeded: %d", b.Len())
		}
	}
	if evictions == 0 {
		t.Fatal("no evictions under churn")
	}
	// Every buffered page's content must be its latest write.
	latest := make(map[ftl.LPN]trace.Hash)
	for i := 0; i < 10000; i++ {
		latest[ftl.LPN(i%37)] = h(uint64(i))
	}
	for _, pg := range b.Drain() {
		if latest[pg.LPN] != pg.Hash {
			t.Fatalf("page %d drained stale content", pg.LPN)
		}
	}
}

func TestStatsString(t *testing.T) {
	if (Stats{}).String() == "" {
		t.Error("empty stats string")
	}
}
