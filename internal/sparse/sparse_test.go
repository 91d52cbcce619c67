package sparse

import (
	"math/rand"
	"testing"
)

func TestDefaultFill(t *testing.T) {
	a := New[uint32](10_000, ^uint32(0))
	for _, i := range []int64{0, 1, chunkSize - 1, chunkSize, 9_999} {
		if got := a.Get(i); got != ^uint32(0) {
			t.Fatalf("Get(%d) = %d, want default", i, got)
		}
	}
	if a.Chunks() != 0 {
		t.Fatalf("reads materialized %d chunks", a.Chunks())
	}
	a.Set(chunkSize+5, 42)
	if got := a.Get(chunkSize + 5); got != 42 {
		t.Fatalf("Get after Set = %d, want 42", got)
	}
	// The rest of the touched chunk still reads as the default.
	if got := a.Get(chunkSize + 6); got != ^uint32(0) {
		t.Fatalf("neighbor of Set = %d, want default", got)
	}
	if a.Chunks() != 1 {
		t.Fatalf("one Set materialized %d chunks, want 1", a.Chunks())
	}
}

func TestLastChunkPartial(t *testing.T) {
	// Length not a multiple of the chunk size: the last chunk is partial.
	n := int64(chunkSize + chunkSize/2)
	a := New[int](n, -1)
	a.Set(n-1, 7)
	if got := a.Get(n - 1); got != 7 {
		t.Fatalf("Get(n-1) = %d, want 7", got)
	}
}

func TestBoundsPanic(t *testing.T) {
	a := New[int](100, 0)
	for _, i := range []int64{-1, 100, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			a.Get(i)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			a.Set(i, 1)
		}()
	}
}

// TestAgainstReference drives random Get/Set against a map reference: a
// sparse array must be value-identical to the flat slice it replaces.
func TestAgainstReference(t *testing.T) {
	const n = 3 * chunkSize
	rng := rand.New(rand.NewSource(11))
	a := New[uint64](n, 99)
	ref := map[int64]uint64{}
	for op := 0; op < 200_000; op++ {
		i := rng.Int63n(n)
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			a.Set(i, v)
			ref[i] = v
			continue
		}
		want, ok := ref[i]
		if !ok {
			want = 99
		}
		if got := a.Get(i); got != want {
			t.Fatalf("op %d: Get(%d) = %d, want %d", op, i, got, want)
		}
	}
}

func TestResetAndForEach(t *testing.T) {
	n := int64(2*chunkSize + 10) // partial last chunk
	a := New[int](n, -1)
	a.Set(3, 30)
	a.Set(n-1, 99)
	var got []int64
	a.ForEach(func(i int64, v int) {
		if v != -1 {
			got = append(got, i)
		}
	})
	if len(got) != 2 || got[0] != 3 || got[1] != n-1 {
		t.Fatalf("ForEach non-default indices = %v, want [3 %d]", got, n-1)
	}
	// ForEach must stop at the logical length, not the chunk boundary.
	count := 0
	a.ForEach(func(i int64, v int) {
		count++
		if i >= n {
			t.Fatalf("ForEach visited out-of-range index %d", i)
		}
	})
	if want := int(chunkSize + 10); count != want {
		t.Fatalf("ForEach visited %d entries, want %d (two materialized chunks)", count, want)
	}
	a.Reset()
	if a.Chunks() != 0 {
		t.Fatalf("Reset left %d chunks", a.Chunks())
	}
	if a.Get(3) != -1 || a.Get(n-1) != -1 {
		t.Fatal("Reset did not restore defaults")
	}
	visited := false
	a.ForEach(func(int64, int) { visited = true })
	if visited {
		t.Fatal("ForEach visited entries after Reset")
	}
}

// TestHugeVirtualLength pins the point of the package: an array sized for
// the 1 TB drive's 256 M pages costs only the chunk table until written.
func TestHugeVirtualLength(t *testing.T) {
	const pages = 256 << 20
	a := New[uint32](pages, ^uint32(0))
	a.Set(pages-1, 1)
	a.Set(0, 2)
	if a.Chunks() != 2 {
		t.Fatalf("two writes materialized %d chunks, want 2", a.Chunks())
	}
	if a.Get(pages-1) != 1 || a.Get(0) != 2 || a.Get(pages/2) != ^uint32(0) {
		t.Fatal("values drifted at the extremes")
	}
}

func TestGrow(t *testing.T) {
	a := New[int](0, -1)
	a.Grow(0) // no-op
	if a.Len() != 0 {
		t.Fatalf("Len after Grow(0) = %d", a.Len())
	}
	for i := int64(0); i < 3*chunkSize; i++ {
		a.Grow(i + 1)
		a.Set(i, int(i))
	}
	a.Grow(5) // shrinking is a no-op
	if a.Len() != 3*chunkSize {
		t.Fatalf("Len = %d, want %d", a.Len(), 3*chunkSize)
	}
	// Growing past a partial last chunk keeps its values and defaults the
	// fresh tail, including the unwritten slots of that same chunk.
	b := New[int](chunkSize/2, -1)
	b.Set(chunkSize/2-1, 9)
	b.Grow(4*chunkSize + 1)
	if got := b.Get(chunkSize/2 - 1); got != 9 {
		t.Fatalf("value lost across Grow: %d", got)
	}
	for _, i := range []int64{chunkSize / 2, chunkSize, 4 * chunkSize} {
		if got := b.Get(i); got != -1 {
			t.Fatalf("Get(%d) after Grow = %d, want default", i, got)
		}
	}
	if b.Chunks() != 1 {
		t.Fatalf("Grow materialized chunks: %d", b.Chunks())
	}
	for i := int64(0); i < a.Len(); i++ {
		if a.Get(i) != int(i) {
			t.Fatalf("Get(%d) = %d", i, a.Get(i))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Get past the grown length did not panic")
			}
		}()
		b.Get(4*chunkSize + 1)
	}()
}
