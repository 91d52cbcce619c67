package analysis

import (
	"sort"

	"zombiessd/internal/core"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// LRUSweepPoint is one bar of Fig 5: the number of writes actually
// performed when a dead-value buffer of the given capacity short-circuits
// matching writes. Capacity 0 means the infinite (ideal) buffer.
type LRUSweepPoint struct {
	Capacity int
	Writes   int64
	Hits     int64
}

// ReplayPool drives a dead-value pool with the write stream of recs (no SSD
// timing, as in Section III-A) and returns performed writes and pool hits.
func ReplayPool(recs []trace.Record, pool core.Pool, ledger *core.Ledger) (writes, hits int64) {
	pages := make(map[uint64]struct {
		h   trace.Hash
		ppn ssd.PPN
	})
	nextPPN := ssd.PPN(0)
	var tick core.Tick
	for _, r := range recs {
		if r.Op != trace.OpWrite {
			continue
		}
		tick++
		ledger.Bump(r.Hash)
		if old, ok := pages[r.LBA]; ok {
			pool.Insert(old.h, old.ppn, tick)
		}
		if ppn, ok := pool.Lookup(r.Hash, tick); ok {
			hits++
			pages[r.LBA] = struct {
				h   trace.Hash
				ppn ssd.PPN
			}{r.Hash, ppn}
			continue
		}
		writes++
		pages[r.LBA] = struct {
			h   trace.Hash
			ppn ssd.PPN
		}{r.Hash, nextPPN}
		nextPPN++
	}
	return writes, hits
}

// LRUWriteSweep returns Fig 5: performed writes for LRU dead-value buffers
// of each capacity (entries), plus the infinite buffer when 0 is included.
func LRUWriteSweep(recs []trace.Record, capacities []int) []LRUSweepPoint {
	out := make([]LRUSweepPoint, 0, len(capacities))
	for _, c := range capacities {
		ledger := core.NewLedger()
		var pool core.Pool
		if c == 0 {
			pool = core.NewInfinitePool(ledger)
		} else {
			pool = core.NewLRUPool(c, ledger)
		}
		w, h := ReplayPool(recs, pool, ledger)
		out = append(out, LRUSweepPoint{Capacity: c, Writes: w, Hits: h})
	}
	return out
}

// MQWriteSweep mirrors LRUWriteSweep with the paper's MQ pool, for the
// policy ablation.
func MQWriteSweep(recs []trace.Record, capacities []int, queues int) []LRUSweepPoint {
	out := make([]LRUSweepPoint, 0, len(capacities))
	for _, c := range capacities {
		ledger := core.NewLedger()
		var pool core.Pool
		if c == 0 {
			pool = core.NewInfinitePool(ledger)
		} else {
			pool = core.NewMQPool(core.MQConfig{Queues: queues, Capacity: c, DefaultLifetime: 8192}, ledger)
		}
		w, h := ReplayPool(recs, pool, ledger)
		out = append(out, LRUSweepPoint{Capacity: c, Writes: w, Hits: h})
	}
	return out
}

// DegreeMisses is one bar of Fig 6: the average number of avoidable LRU
// misses per value, for values of one popularity degree. A miss is
// avoidable when the infinite buffer would have serviced the write but the
// bounded LRU buffer did not.
type DegreeMisses struct {
	Degree    int64
	Values    int64
	AvgMisses float64
}

// LRUMissByPopularity runs the bounded LRU buffer and the infinite buffer
// in lockstep over recs and reports avoidable misses binned by the value's
// final popularity degree (clamped at maxDegree), ascending (Fig 6).
func LRUMissByPopularity(recs []trace.Record, capacity int, maxDegree int64) []DegreeMisses {
	if maxDegree < 1 {
		maxDegree = 1
	}
	ledgerL := core.NewLedger()
	lru := core.NewLRUPool(capacity, ledgerL)
	ledgerI := core.NewLedger()
	ideal := core.NewInfinitePool(ledgerI)

	type pageCopy struct {
		h    trace.Hash
		lppn ssd.PPN
		ippn ssd.PPN
	}
	pages := make(map[uint64]pageCopy)
	misses := make(map[trace.Hash]int64)
	writesPerValue := make(map[trace.Hash]int64)
	nextL, nextI := ssd.PPN(0), ssd.PPN(0)
	var tick core.Tick
	for _, r := range recs {
		if r.Op != trace.OpWrite {
			continue
		}
		tick++
		ledgerL.Bump(r.Hash)
		ledgerI.Bump(r.Hash)
		writesPerValue[r.Hash]++
		if old, ok := pages[r.LBA]; ok {
			lru.Insert(old.h, old.lppn, tick)
			ideal.Insert(old.h, old.ippn, tick)
		}
		var cp pageCopy
		cp.h = r.Hash
		lp, lruHit := lru.Lookup(r.Hash, tick)
		ip, idealHit := ideal.Lookup(r.Hash, tick)
		if lruHit {
			cp.lppn = lp
		} else {
			cp.lppn = nextL
			nextL++
		}
		if idealHit {
			cp.ippn = ip
		} else {
			cp.ippn = nextI
			nextI++
		}
		if idealHit && !lruHit {
			misses[r.Hash]++
		}
		pages[r.LBA] = cp
	}

	type acc struct{ values, misses int64 }
	bins := make(map[int64]*acc)
	for h, w := range writesPerValue {
		d := w
		if d > maxDegree {
			d = maxDegree
		}
		a := bins[d]
		if a == nil {
			a = &acc{}
			bins[d] = a
		}
		a.values++
		a.misses += misses[h]
	}
	degrees := make([]int64, 0, len(bins))
	for d := range bins {
		degrees = append(degrees, d)
	}
	sort.Slice(degrees, func(i, j int) bool { return degrees[i] < degrees[j] })
	out := make([]DegreeMisses, 0, len(degrees))
	for _, d := range degrees {
		a := bins[d]
		out = append(out, DegreeMisses{
			Degree:    d,
			Values:    a.values,
			AvgMisses: float64(a.misses) / float64(a.values),
		})
	}
	return out
}
