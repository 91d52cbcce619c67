// Package sparse provides a chunked array that allocates backing storage
// lazily, one fixed-size chunk at a time. It stands in for the flat
// per-page metadata slices of the FTL (page state, OOB records, reverse
// mappings): a 1 TB drive has 256 M physical pages, and flat arrays
// indexed by PPN cost gigabytes even when a CI-scale trace only ever
// touches a few hundred blocks. A sparse array costs one slice-header
// table up front and materializes only the chunks that are written, while
// reads of untouched indices return a caller-chosen default — so swapping
// a flat slice for a sparse array is value-identical, chunk for chunk.
package sparse

import "fmt"

// chunkShift sets the chunk size to 1<<chunkShift entries. 4096 entries
// per chunk keeps a chunk of 32-byte records at 128 KB — big enough to
// amortize the indirection, small enough that a plane's frontier blocks
// on the 1 TB geometry materialize megabytes, not gigabytes.
const chunkShift = 12

const (
	chunkSize = 1 << chunkShift
	chunkMask = chunkSize - 1
)

// Array is a fixed-length array of T whose storage materializes in
// chunks on first write. Unwritten indices read as the default value.
// The zero Array is unusable; construct with New.
type Array[T comparable] struct {
	n      int64
	def    T
	chunks [][]T
}

// New returns a length-n array whose every element reads as def until
// written. Storage cost before any Set is one slice header per chunk
// (24 bytes per 4096 entries).
func New[T comparable](n int64, def T) *Array[T] {
	if n < 0 {
		panic(fmt.Sprintf("sparse: negative length %d", n))
	}
	return &Array[T]{
		n:      n,
		def:    def,
		chunks: make([][]T, (n+chunkMask)>>chunkShift),
	}
}

// Len returns the array's logical length.
func (a *Array[T]) Len() int64 { return a.n }

// Get returns the element at index i, or the default if its chunk was
// never written. Panics when i is out of range, like a slice would.
func (a *Array[T]) Get(i int64) T {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, a.n))
	}
	c := a.chunks[i>>chunkShift]
	if c == nil {
		return a.def
	}
	return c[i&chunkMask]
}

// Set writes the element at index i, materializing its chunk (filled
// with the default) on first touch. Panics when i is out of range.
func (a *Array[T]) Set(i int64, v T) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, a.n))
	}
	ci := i >> chunkShift
	c := a.chunks[ci]
	if c == nil {
		c = make([]T, chunkSize)
		var zero T
		if a.def != zero {
			for j := range c {
				c[j] = a.def
			}
		}
		a.chunks[ci] = c
	}
	c[i&chunkMask] = v
}

// Grow extends the logical length to n, when n is larger: the new indices
// read as the default, and already-written elements keep their values.
// Growth costs chunk-table slots only, never chunk storage, so a caller
// whose index space is unbounded can grow one index at a time.
func (a *Array[T]) Grow(n int64) {
	if n <= a.n {
		return
	}
	a.n = n
	if need := int((n + chunkMask) >> chunkShift); need > len(a.chunks) {
		a.chunks = append(a.chunks, make([][]T, need-len(a.chunks))...)
	}
}

// Reset drops every materialized chunk: all elements read as the default
// again, at the cost of one nil store per chunk-table slot. Equivalent to
// (but much cheaper than) looping Set(i, def) over the whole array.
func (a *Array[T]) Reset() {
	for i := range a.chunks {
		a.chunks[i] = nil
	}
}

// ForEach visits, in ascending index order, every element whose chunk has
// been materialized — the only indices that can differ from the default.
// Callers that treat the default as "absent" (InvalidLPN, an empty OOB)
// get a full logical scan at resident cost. f must not Set into a chunk
// that has not been materialized yet.
func (a *Array[T]) ForEach(f func(i int64, v T)) {
	for ci, c := range a.chunks {
		if c == nil {
			continue
		}
		base := int64(ci) << chunkShift
		limit := a.n - base
		if limit > chunkSize {
			limit = chunkSize
		}
		for j := int64(0); j < limit; j++ {
			f(base+j, c[j])
		}
	}
}

// Chunks reports how many chunks have been materialized — the resident
// footprint in units of chunkSize entries, for tests and diagnostics.
func (a *Array[T]) Chunks() int {
	n := 0
	for _, c := range a.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// ChunkEntries returns the number of entries per chunk.
func ChunkEntries() int { return chunkSize }
