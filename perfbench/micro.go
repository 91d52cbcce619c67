package main

import (
	"fmt"
	"runtime"
	"time"

	"zombiessd/internal/core"
	"zombiessd/internal/ftl"
	"zombiessd/internal/sim"
	"zombiessd/internal/sparse"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
)

// Layer microbenchmarks call one layer's public functions directly, fed
// with the key stream of the workload where that layer does most of the
// work, and report ns/op, allocs/op and B/op. Each one runs microReps times
// and reports the median.
const (
	microRequests = 200_000
	microReps     = 3
)

// opCost is one timed pass of a microbenchmark.
type opCost struct {
	ns, allocs, bytes float64 // per operation
}

// pass times ops operations done by f, with allocation counts read outside
// the timed region.
func pass(ops int, f func()) opCost {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	dt := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(ops)
	return opCost{
		ns:     float64(dt.Nanoseconds()) / n,
		allocs: float64(after.Mallocs-before.Mallocs) / n,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}

// medianCost is the field-wise median of repeated passes.
func medianCost(cs []opCost) opCost {
	var ns, allocs, bytes []float64
	for _, c := range cs {
		ns = append(ns, c.ns)
		allocs = append(allocs, c.allocs)
		bytes = append(bytes, c.bytes)
	}
	return opCost{median(ns), median(allocs), median(bytes)}
}

// runMicrobenchmarks runs every layer microbenchmark. The MQ pool is fed
// the fig9-mail write hashes, the store and the mapping table the
// hadoop-dftl LPNs, and the sparse array the LPNs of the workload being
// measured.
func runMicrobenchmarks(seed int64, tr *tracedResult) (map[string]metric, error) {
	out := map[string]metric{}
	mail, _, err := generate("mail", microRequests, seed)
	if err != nil {
		return nil, err
	}
	hadoop, hadoopFootprint, err := generate("hadoop", microRequests, seed)
	if err != nil {
		return nil, err
	}

	ins, look, drop, combined := mqBench(mail)
	out["core.mq_insert_ns"] = metric{ins.ns, "ns"}
	out["core.mq_lookup_ns"] = metric{look.ns, "ns"}
	out["core.mq_drop_ns"] = metric{drop.ns, "ns"}
	out["core.mq_allocs_per_op"] = metric{combined.allocs, "objects"}
	out["core.mq_bytes_per_op"] = metric{combined.bytes, "B"}

	prog, read, err := storeBench(hadoop, hadoopFootprint)
	if err != nil {
		return nil, fmt.Errorf("ftl microbenchmark: %w", err)
	}
	out["ftl.program_ns"] = metric{prog.ns, "ns"}
	out["ftl.read_ns"] = metric{read.ns, "ns"}
	out["ftl.allocs_per_op"] = metric{(prog.allocs + read.allocs) / 2, "objects"}

	mapRead, mapWrite, mapCost, err := mapBench(hadoop, hadoopFootprint)
	if err != nil {
		return nil, fmt.Errorf("dftl microbenchmark: %w", err)
	}
	out["dftl.map_read_ns"] = metric{mapRead, "ns"}
	out["dftl.map_write_ns"] = metric{mapWrite, "ns"}
	out["dftl.allocs_per_op"] = metric{mapCost.allocs, "objects"}
	out["dftl.bytes_per_op"] = metric{mapCost.bytes, "B"}

	obs, req := telemetryBench(hadoop, hadoopFootprint)
	out["telemetry.observe_op_ns"] = metric{obs.ns, "ns"}
	out["telemetry.request_ns"] = metric{req.ns, "ns"}
	out["telemetry.allocs_per_op"] = metric{(obs.allocs + req.allocs) / 2, "objects"}

	get, set := sparseBench(workloadLPNs(tr))
	out["sparse.get_ns"] = metric{get.ns, "ns"}
	out["sparse.set_ns"] = metric{set.ns, "ns"}
	return out, nil
}

// mqBench inserts every write hash as a dead value, looks each one up
// (hits revive and leave the pool), re-inserts them untimed, and drops
// every page (the GC erase path). The pool has the matrix's dvp-200k size
// for the stream's length.
func mqBench(recs []trace.Record) (ins, look, drop, combined opCost) {
	var hashes []trace.Hash
	for _, r := range recs {
		if r.Op == trace.OpWrite {
			hashes = append(hashes, r.Hash)
		}
	}
	n := len(hashes)
	capacity := int(paperPoolEntries * int64(len(recs)) / paperRequests)
	var insC, lookC, dropC, allC []opCost
	for rep := 0; rep < microReps; rep++ {
		ledger := core.NewLedger()
		for _, h := range hashes {
			ledger.Bump(h)
		}
		pool := core.NewMQPool(core.MQConfig{Queues: 8, Capacity: capacity, DefaultLifetime: 8192}, ledger)
		i1 := pass(n, func() {
			for i, h := range hashes {
				pool.Insert(h, ssd.PPN(i), core.Tick(i))
			}
		})
		i2 := pass(n, func() {
			for i, h := range hashes {
				pool.Lookup(h, core.Tick(n+i))
			}
		})
		for i, h := range hashes {
			pool.Insert(h, ssd.PPN(n+i), core.Tick(2*n+i))
		}
		i3 := pass(n, func() {
			for i := range hashes {
				pool.Drop(ssd.PPN(n + i))
			}
		})
		insC, lookC, dropC = append(insC, i1), append(lookC, i2), append(dropC, i3)
		allC = append(allC, opCost{
			allocs: (i1.allocs + i2.allocs + i3.allocs) / 3,
			bytes:  (i1.bytes + i2.bytes + i3.bytes) / 3,
		})
	}
	return medianCost(insC), medianCost(lookC), medianCost(dropC), medianCost(allC)
}

// testStore is a baseline-style page-mapped store for the store and map
// microbenchmarks: the mapper follows GC relocations exactly as the baseline
// device wires it.
type testStore struct {
	store  *ftl.Store
	mapper *ftl.Mapper
}

func newTestStore(cfg sim.Config) (*testStore, error) {
	cfg.Store.DFTL = cfg.DFTL
	bus := ssd.NewBus(cfg.Geometry, cfg.Latency)
	store, err := ftl.NewStore(cfg.Store, bus)
	if err != nil {
		return nil, err
	}
	if err := store.AttachCMT(cfg.LogicalPages); err != nil {
		return nil, err
	}
	mapper, err := ftl.NewMapper(cfg.LogicalPages, cfg.Geometry.TotalPages())
	if err != nil {
		return nil, err
	}
	store.OnRelocate = mapper.Relocate
	store.OwnerOf = mapper.OwnerOf
	store.LookupOf = mapper.Lookup
	return &testStore{store: store, mapper: mapper}, nil
}

// write programs a fresh page for lpn, rebinds it and invalidates the
// superseded page; it returns the new page and the program's completion.
func (t *testStore) write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.PPN, ssd.Time, error) {
	ppn, done, err := t.store.Program(now)
	if err != nil {
		return ppn, done, err
	}
	t.store.StampOOB(ppn, lpn, h, false)
	if old := t.mapper.Bind(lpn, ppn); old != ssd.InvalidPPN {
		if err := t.store.Invalidate(old); err != nil {
			return ppn, done, err
		}
	}
	return ppn, done, nil
}

// precondition fills every logical page once and returns the time shift
// that puts the trace after the fill.
func (t *testStore) precondition(footprint int64, mapped bool) (ssd.Time, error) {
	var end ssd.Time
	for lpn := int64(0); lpn < footprint; lpn++ {
		ppn, done, err := t.write(ftl.LPN(lpn), sim.PreconditionHash(lpn), 0)
		if err != nil {
			return 0, err
		}
		if mapped {
			if done, err = t.store.MapWrite(ftl.LPN(lpn), ppn, done); err != nil {
				return 0, err
			}
		}
		if done > end {
			end = done
		}
	}
	return end + ssd.Millisecond, nil
}

// storeBench times ftl.Store Program (with the GC it triggers),
// Invalidate and Read over the hadoop LPN stream, on the hadoop-dftl
// geometry with the map in RAM.
func storeBench(recs []trace.Record, footprint int64) (prog, read opCost, err error) {
	var writes, reads []trace.Record
	for _, r := range recs {
		if r.Op == trace.OpWrite {
			writes = append(writes, r)
		} else {
			reads = append(reads, r)
		}
	}
	var progC, readC []opCost
	for rep := 0; rep < microReps; rep++ {
		ts, err := newTestStore(deviceConfig(sim.KindBaseline, footprint, int64(len(recs)), hadoopUtilization))
		if err != nil {
			return prog, read, err
		}
		shift, err := ts.precondition(footprint, false)
		if err != nil {
			return prog, read, err
		}
		var werr, rerr error
		progC = append(progC, pass(len(writes), func() {
			for _, r := range writes {
				if _, _, werr = ts.write(ftl.LPN(r.LBA), r.Hash, shift+ssd.Time(r.Time)); werr != nil {
					return
				}
			}
		}))
		readC = append(readC, pass(len(reads), func() {
			for _, r := range reads {
				ppn, _ := ts.mapper.Lookup(ftl.LPN(r.LBA))
				if _, rerr = ts.store.Read(ppn, shift+ssd.Time(r.Time)); rerr != nil {
					return
				}
			}
		}))
		if werr != nil || rerr != nil {
			return prog, read, fmt.Errorf("write: %v, read: %v", werr, rerr)
		}
	}
	return medianCost(progC), medianCost(readC), nil
}

// mapBench replays the hadoop LPN stream through AttachCMT's mapping
// table on the hadoop-dftl configuration: MapRead for reads, and for
// writes a data program followed by MapWrite. Each map call is timed on
// its own; allocations are counted over the whole pass, data path
// included (ftl.allocs_per_op reports that path alone).
func mapBench(recs []trace.Record, footprint int64) (readNs, writeNs float64, cost opCost, err error) {
	var readNsC, writeNsC []float64
	var costC []opCost
	for rep := 0; rep < microReps; rep++ {
		ts, err := newTestStore(hadoopDftlConfig(footprint, int64(len(recs))))
		if err != nil {
			return 0, 0, cost, err
		}
		shift, err := ts.precondition(footprint, true)
		if err != nil {
			return 0, 0, cost, err
		}
		var rNs, wNs int64
		var nr, nw int
		var perr error
		c := pass(len(recs), func() {
			for _, r := range recs {
				lpn, now := ftl.LPN(r.LBA), shift+ssd.Time(r.Time)
				if r.Op != trace.OpWrite {
					t0 := time.Now()
					_, perr = ts.store.MapRead(lpn, now)
					rNs += time.Since(t0).Nanoseconds()
					nr++
				} else {
					var ppn ssd.PPN
					var done ssd.Time
					if ppn, done, perr = ts.write(lpn, r.Hash, now); perr != nil {
						return
					}
					t0 := time.Now()
					_, perr = ts.store.MapWrite(lpn, ppn, done)
					wNs += time.Since(t0).Nanoseconds()
					nw++
				}
				if perr != nil {
					return
				}
			}
		})
		if perr != nil {
			return 0, 0, cost, perr
		}
		readNsC = append(readNsC, float64(rNs)/float64(nr))
		writeNsC = append(writeNsC, float64(wNs)/float64(nw))
		costC = append(costC, c)
	}
	return median(readNsC), median(writeNsC), medianCost(costC), nil
}

// telemetryBench feeds one flash observation per request of the hadoop
// stream into an enabled telemetry instance (tracer on), then one
// BeginRequest/EndRequest pair per request.
func telemetryBench(recs []trace.Record, footprint int64) (obs, req opCost) {
	geo := sim.GeometryFor(footprint, hadoopUtilization)
	lat := ssd.PaperLatency()
	chips := geo.TotalChips()
	var obsC, reqC []opCost
	for rep := 0; rep < microReps; rep++ {
		tel := telemetry.New(telemetry.Config{Enabled: true})
		tel.Attach(geo)
		obsC = append(obsC, pass(len(recs), func() {
			for i, r := range recs {
				chip := i % chips
				t := ssd.Time(r.Time)
				op := ssd.OpObservation{Kind: ssd.OpRead, Chip: chip, Channel: geo.ChannelOfChip(chip),
					Issue: t, Start: t, Transfer: lat.Transfer, Cell: lat.Read}
				if r.Op == trace.OpWrite {
					op.Kind, op.Cell = ssd.OpProgram, lat.Program
				}
				op.Done = t + op.Transfer + op.Cell
				tel.ObserveOp(op)
			}
		}))
		reqC = append(reqC, pass(len(recs), func() {
			for _, r := range recs {
				kind := telemetry.ReqRead
				if r.Op == trace.OpWrite {
					kind = telemetry.ReqWrite
				}
				t := ssd.Time(r.Time)
				tel.BeginRequest(kind, t)
				tel.EndRequest(t + lat.Read)
			}
		}))
	}
	return medianCost(obsC), medianCost(reqC)
}

// workloadLPNs is the logical-page stream of the measured workload, every
// tenant's addresses offset into its own range. The cells of a workload
// share one trace.
func workloadLPNs(tr *tracedResult) (lpns []int64, footprint int64) {
	c := tr.cells[0]
	if c.tenants == nil {
		for _, r := range c.recs {
			lpns = append(lpns, int64(r.LBA))
		}
		return lpns, c.footprint
	}
	var base int64
	for _, t := range c.tenants {
		for _, r := range t.Recs {
			lpns = append(lpns, base+int64(r.LBA))
		}
		base += t.Footprint
	}
	return lpns, c.footprint
}

// sparseSink keeps the compiler from discarding the timed Get calls.
var sparseSink int64

// sparseBench sets then gets every LPN of the stream in a fresh array.
func sparseBench(lpns []int64, footprint int64) (get, set opCost) {
	var getC, setC []opCost
	for rep := 0; rep < microReps; rep++ {
		arr := sparse.New[int64](footprint, -1)
		setC = append(setC, pass(len(lpns), func() {
			for i, l := range lpns {
				arr.Set(l, int64(i))
			}
		}))
		getC = append(getC, pass(len(lpns), func() {
			for _, l := range lpns {
				sparseSink += arr.Get(l)
			}
		}))
	}
	return medianCost(getC), medianCost(setC)
}
