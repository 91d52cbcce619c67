package sim

import (
	"errors"
	"fmt"

	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// This file is the discrete-event, NVMe-style multi-queue host engine: N
// independent tenant streams, per-tenant submission/completion queues
// with queue-depth admission control, and a pluggable QoS arbiter that
// picks the next dispatch by simulated time. The single-submitter Run in
// runner.go is the degenerate case — one tenant, FIFO arbiter, unlimited
// queue depth — and stays bit-identical to the pre-engine runner (pinned
// by TestNoTenantBitIdentity).
//
// Determinism rules: the engine advances a single simulated clock through
// the merged event stream (arrivals, completions, arbiter wakes), every
// container is a slice (no map iteration), ties break by fixed tenant
// index or dispatch sequence, and arbiters are pure state machines. An
// N-tenant run is therefore a pure function of (seeds, config) —
// byte-identical across repeated invocations and worker counts.

// TenantTrace is one tenant's materialized input to the engine.
type TenantTrace struct {
	// Cfg carries the tenant's QoS parameters and label.
	Cfg TenantConfig

	// Recs is the tenant's trace; times must be non-decreasing (workload
	// generators guarantee this).
	Recs []trace.Record

	// Footprint is the number of logical pages reserved for the tenant.
	// Each tenant owns the LPN range [base, base+Footprint) where base is
	// the prefix sum of earlier tenants' footprints; Recs address
	// [0, Footprint).
	Footprint int64
}

// EngineOptions configures one multi-tenant engine run.
type EngineOptions struct {
	// Arbiter selects the QoS policy (default ArbFIFO).
	Arbiter ArbiterKind

	// QueueDepth is the default per-tenant bound on outstanding requests
	// (queued + in flight); tenants may override it, and 0 means
	// unlimited — no admission control, no dispatch backpressure.
	QueueDepth int

	// DeviceSlots bounds in-flight requests across all tenants — the
	// device-side service capacity the arbiter allocates. When every slot
	// is busy, admitted requests wait in their submission queues; each
	// completion frees one slot and the arbiter picks which tenant's head
	// takes it. This shared bound is what makes QoS policy observable:
	// without it every tenant dispatches at its own arrival instant and
	// the policies collapse into FIFO. 0 means unlimited.
	DeviceSlots int

	// PreconditionPages > 0 fills logical pages [0, PreconditionPages)
	// with unique content before the timed run, exactly as RunOptions
	// does.
	PreconditionPages int64

	// LogicalPages is the device's logical space; the tenants' footprints
	// must fit inside it.
	LogicalPages int64
}

// TenantResult is one tenant's slice of a multi-tenant run.
type TenantResult struct {
	Name string

	// Requests counts dispatched (and completed) requests; Rejected
	// counts arrivals shed by queue-depth admission control.
	Requests int64
	Rejected int64

	// WritesRejected counts writes refused by a read-only device — the
	// health governor shed them instead of failing the run.
	WritesRejected int64

	// MaxQueue is the high-water mark of the tenant's submission queue.
	MaxQueue int

	// All, Reads and Writes summarize end-to-end latency (completion −
	// arrival, arbiter hold included); P999 is the 99.9th percentile over
	// all of the tenant's requests in µs, the isolation tail the
	// tenantsweep experiment reports next to P99.
	All, Reads, Writes stats.Summary
	P999               int64

	// Wait summarizes the arbiter hold (dispatch − arrival).
	Wait stats.Summary

	// Metrics accumulates the device-counter deltas of the tenant's own
	// requests: flash work performed while servicing them, including any
	// GC they induced. Only populated on multi-tenant runs.
	Metrics DeviceMetrics

	// Store is the FTL-level ledger: programs, relocation traffic, and
	// the cross-tenant zombie-revival subsidy. Only populated on
	// multi-tenant runs against a Store-backed device.
	Store ftl.TenantStoreStats
}

// DVPHitPct returns the tenant's dead-value-pool hit rate: revived writes
// per host write, in percent.
func (r TenantResult) DVPHitPct() float64 {
	if r.Metrics.HostWrites == 0 {
		return 0
	}
	return 100 * float64(r.Metrics.Revived) / float64(r.Metrics.HostWrites)
}

// MultiResult is the outcome of a multi-tenant engine run: the aggregate
// Result (identical in shape to the single-submitter runner's) plus the
// per-tenant breakdown.
type MultiResult struct {
	Result
	Tenants []TenantResult
}

// GenerateTenants materializes every tenant's trace. A tenant with
// Requests 0 gets an equal share of totalRequests (at least 64); a tenant
// with Seed 0 gets a seed derived from baseSeed and its index, so
// distinct tenants never share an RNG stream.
func GenerateTenants(cfgs []TenantConfig, totalRequests, baseSeed int64) ([]TenantTrace, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: no tenants configured")
	}
	out := make([]TenantTrace, len(cfgs))
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		n := c.Requests
		if n == 0 {
			n = totalRequests / int64(len(cfgs))
			if n < 64 {
				n = 64
			}
		}
		seed := c.Seed
		if seed == 0 {
			seed = baseSeed + int64(i)*1_000_003
		}
		g, err := workload.NewGenerator(c.Profile, n, seed)
		if err != nil {
			return nil, fmt.Errorf("sim: tenant %s: %w", c.Name, err)
		}
		recs := make([]trace.Record, 0, n)
		for {
			rec, ok := g.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		out[i] = TenantTrace{Cfg: c, Recs: recs, Footprint: int64(g.Footprint())}
	}
	return out, nil
}

// TotalFootprint returns the logical pages the tenant set needs.
func TotalFootprint(tenants []TenantTrace) int64 {
	var sum int64
	for _, t := range tenants {
		sum += t.Footprint
	}
	return sum
}

// RunTenants drives the tenant streams through dev under the configured
// arbiter and returns the aggregate and per-tenant results.
func RunTenants(dev Device, tenants []TenantTrace, opts EngineOptions) (MultiResult, error) {
	n := len(tenants)
	if n == 0 {
		return MultiResult{}, fmt.Errorf("sim: no tenants to run")
	}
	if opts.LogicalPages <= 0 {
		return MultiResult{}, fmt.Errorf("sim: EngineOptions.LogicalPages must be positive")
	}
	if opts.QueueDepth < 0 {
		return MultiResult{}, fmt.Errorf("sim: queue depth must be ≥ 0, got %d", opts.QueueDepth)
	}
	if opts.DeviceSlots < 0 {
		return MultiResult{}, fmt.Errorf("sim: device slots must be ≥ 0, got %d", opts.DeviceSlots)
	}
	if opts.PreconditionPages > opts.LogicalPages {
		return MultiResult{}, fmt.Errorf("sim: precondition pages %d exceed logical pages %d",
			opts.PreconditionPages, opts.LogicalPages)
	}
	bases := make([]int64, n)
	var sum int64
	for i, t := range tenants {
		if t.Footprint <= 0 {
			return MultiResult{}, fmt.Errorf("sim: tenant %s footprint must be positive", t.Cfg.Name)
		}
		bases[i] = sum
		sum += t.Footprint
	}
	if sum > opts.LogicalPages {
		return MultiResult{}, fmt.Errorf("sim: tenant footprints total %d exceed logical space %d",
			sum, opts.LogicalPages)
	}
	multi := n > 1
	// Validate every record before touching the device, with the
	// pre-engine runner's error wording on single-tenant runs.
	for _, tt := range tenants {
		for i, rec := range tt.Recs {
			if rec.LBA >= uint64(tt.Footprint) {
				if !multi {
					return MultiResult{}, fmt.Errorf("sim: record %d LBA %d outside logical space %d",
						i, rec.LBA, tt.Footprint)
				}
				return MultiResult{}, fmt.Errorf("sim: tenant %s record %d LBA %d outside tenant footprint %d",
					tt.Cfg.Name, i, rec.LBA, tt.Footprint)
			}
			if rec.Op != trace.OpWrite && rec.Op != trace.OpRead {
				if !multi {
					return MultiResult{}, fmt.Errorf("sim: record %d has unknown op %v", i, rec.Op)
				}
				return MultiResult{}, fmt.Errorf("sim: tenant %s record %d has unknown op %v",
					tt.Cfg.Name, i, rec.Op)
			}
		}
	}

	tel := telemetryOf(dev)
	store := StoreOf(dev)
	if multi {
		if store != nil {
			store.EnableTenants(n)
		}
		names := make([]string, n)
		for i, t := range tenants {
			names[i] = t.Cfg.Name
		}
		tel.DeclareTenants(names)
	}

	// Untimed preconditioning fill, identical to the single-submitter
	// runner's (same value region, same origin tag, same time shift).
	var shift ssd.Time
	if opts.PreconditionPages > 0 {
		prevOrigin := tel.EnterOrigin(telemetry.OriginPrecond)
		var end ssd.Time
		for lpn := int64(0); lpn < opts.PreconditionPages; lpn++ {
			done, err := dev.Write(lpnOf(lpn), PreconditionHash(lpn), 0)
			if err != nil {
				tel.ExitOrigin(prevOrigin)
				return MultiResult{}, fmt.Errorf("sim: precondition write %d: %w", lpn, err)
			}
			if done > end {
				end = done
			}
		}
		tel.ExitOrigin(prevOrigin)
		shift = end + ssd.Millisecond
	}
	baseline := dev.Metrics()

	// Engine state.
	arb := newArbiter(opts.Arbiter, tenantConfigs(tenants))
	queues := make([]subQueue, n)
	for i, t := range tenants {
		qd := t.Cfg.QueueDepth
		if qd == 0 {
			qd = opts.QueueDepth
		}
		queues[i].depth = qd
	}
	next := make([]int, n)     // next unadmitted record per tenant
	inflight := make([]int, n) // dispatched, completion still pending
	totalInflight := 0         // sum of inflight, bounded by DeviceSlots
	heads := make([]ssd.Time, n)
	ready := make([]int, 0, n)
	var cq cqueue
	var seq int64

	var all, reads, writes stats.Histogram
	tAll := make([]stats.Histogram, n)
	tReads := make([]stats.Histogram, n)
	tWrites := make([]stats.Histogram, n)
	tWait := make([]stats.Histogram, n)
	writesRejected := make([]int64, n)

	// Per-tenant device metrics. The device's counters move only inside
	// Write and Read, so every change between two snapshots belongs to the
	// one tenant charged in between. A snapshot is taken only when a
	// dispatch switches tenants, just before the device call, and once
	// after the run; int64 sums are associative, so the totals equal
	// snapshots taken around every call exactly.
	perMetrics := make([]DeviceMetrics, n)
	prevSnap := baseline
	charged := -1 // tenant the device activity since prevSnap belongs to
	settle := func() {
		if charged >= 0 {
			cur := dev.Metrics()
			perMetrics[charged] = perMetrics[charged].Add(cur.Sub(prevSnap))
			prevSnap = cur
		}
	}
	var res MultiResult

	arrivalOf := func(t, i int) ssd.Time { return shift + ssd.Time(tenants[t].Recs[i].Time) }

	now := shift
	for {
		// Retire completions due at now (frees queue-depth slots before
		// same-instant admissions and dispatches).
		for cq.len() > 0 && cq.min().done <= now {
			e := cq.pop()
			inflight[e.tenant]--
			totalInflight--
		}
		// Admit arrivals due at now, in tenant order; queue-depth rejects
		// are counted and shed here.
		for t := 0; t < n; t++ {
			for next[t] < len(tenants[t].Recs) && arrivalOf(t, next[t]) <= now {
				queues[t].tryAdmit(next[t], inflight[t])
				next[t]++
			}
		}
		// Dispatch at now until the arbiter declines, nothing is ready, or
		// every device slot is busy (a completion will resume dispatching).
		var arbWake ssd.Time
		for {
			if opts.DeviceSlots > 0 && totalInflight >= opts.DeviceSlots {
				break
			}
			ready = ready[:0]
			for t := 0; t < n; t++ {
				if queues[t].empty() {
					continue
				}
				if d := queues[t].depth; d > 0 && inflight[t] >= d {
					continue
				}
				heads[t] = arrivalOf(t, queues[t].peek())
				ready = append(ready, t)
			}
			if len(ready) == 0 {
				break
			}
			pick, wake := arb.pick(now, ready, heads)
			if pick < 0 {
				if wake <= now {
					wake = now + 1
				}
				arbWake = wake
				break
			}
			i := queues[pick].pop()
			rec := tenants[pick].Recs[i]
			arrival := arrivalOf(pick, i)
			submit := now
			if submit < arrival {
				submit = arrival
			}
			tel.Sample(submit)
			if multi && pick != charged {
				settle()
				charged = pick
			}
			var prevTenant int
			if multi && store != nil {
				prevTenant = store.EnterTenant(pick)
			}
			var done ssd.Time
			var err error
			switch rec.Op {
			case trace.OpWrite:
				if multi {
					tel.BeginRequestTenant(telemetry.ReqWrite, arrival, submit, pick)
				} else {
					tel.BeginRequest(telemetry.ReqWrite, arrival)
				}
				done, err = dev.Write(lpnOf(bases[pick]+int64(rec.LBA)), rec.Hash, submit)
			default: // trace.OpRead, validated above
				if multi {
					tel.BeginRequestTenant(telemetry.ReqRead, arrival, submit, pick)
				} else {
					tel.BeginRequest(telemetry.ReqRead, arrival)
				}
				done, err = dev.Read(lpnOf(bases[pick]+int64(rec.LBA)), submit)
			}
			if err != nil {
				if multi && store != nil {
					store.ExitTenant(prevTenant)
				}
				if rec.Op == trace.OpWrite && errors.Is(err, health.ErrReadOnly) {
					// Graceful degradation: the governor shed the write
					// instead of killing the run. The request completes
					// immediately as an error the host sees; it leaves no
					// latency sample (nothing was serviced) but still
					// cycles through the completion queue so the arbiter's
					// accounting stays uniform.
					writesRejected[pick]++
					tel.EndRequest(submit)
					inflight[pick]++
					totalInflight++
					seq++
					cq.push(completion{done: submit, tenant: pick, seq: seq})
					arb.served(pick, now)
					continue
				}
				if !multi {
					return MultiResult{}, fmt.Errorf("sim: record %d: %w", i, err)
				}
				return MultiResult{}, fmt.Errorf("sim: tenant %s record %d: %w", tenants[pick].Cfg.Name, i, err)
			}
			tel.EndRequest(done)
			if multi && store != nil {
				store.ExitTenant(prevTenant)
			}
			lat := int64(done - arrival)
			all.Add(lat)
			tAll[pick].Add(lat)
			if rec.Op == trace.OpWrite {
				writes.Add(lat)
				tWrites[pick].Add(lat)
			} else {
				reads.Add(lat)
				tReads[pick].Add(lat)
			}
			tWait[pick].Add(int64(submit - arrival))
			if end := done - shift; end > res.Makespan {
				res.Makespan = end
			}
			inflight[pick]++
			totalInflight++
			seq++
			cq.push(completion{done: done, tenant: pick, seq: seq})
			arb.served(pick, now)
		}
		// Advance the clock to the next event: arrival, completion, or
		// arbiter wake.
		var nextEv ssd.Time
		have := false
		consider := func(t ssd.Time) {
			if !have || t < nextEv {
				nextEv, have = t, true
			}
		}
		for t := 0; t < n; t++ {
			if next[t] < len(tenants[t].Recs) {
				consider(arrivalOf(t, next[t]))
			}
		}
		if cq.len() > 0 {
			consider(cq.min().done)
		}
		if arbWake > now {
			consider(arbWake)
		}
		if !have {
			// No arrivals, no completions, no wake: with every queue
			// drained the run is over. A non-empty queue here would be an
			// engine bug (a blocked tenant always has a completion or a
			// wake pending).
			break
		}
		if nextEv <= now {
			nextEv = now + 1
		}
		now = nextEv
	}

	settle()
	res.Metrics = dev.Metrics().Sub(baseline)
	if hs, ok := dev.(interface{ HealthStats() health.Stats }); ok {
		res.Health = hs.HealthStats()
	}
	res.All = all.Summarize()
	res.Reads = reads.Summarize()
	res.Writes = writes.Summarize()
	if br, ok := dev.(interface{ Bus() *ssd.Bus }); ok {
		if bus := br.Bus(); bus != nil {
			res.MeanChipUtil, res.MaxChipUtil = bus.Utilization(shift + res.Makespan)
		}
	}
	var storeStats []ftl.TenantStoreStats
	if multi && store != nil {
		storeStats = store.TenantStats()
	}
	res.Tenants = make([]TenantResult, n)
	for t := 0; t < n; t++ {
		tr := TenantResult{
			Name:           tenants[t].Cfg.Name,
			Requests:       tAll[t].Count(),
			Rejected:       queues[t].rejected,
			WritesRejected: writesRejected[t],
			MaxQueue:       queues[t].maxQueue,
			All:            tAll[t].Summarize(),
			Reads:          tReads[t].Summarize(),
			Writes:         tWrites[t].Summarize(),
			P999:           tAll[t].Quantile(0.999),
			Wait:           tWait[t].Summarize(),
		}
		if multi {
			tr.Metrics = perMetrics[t]
		} else {
			tr.Metrics = res.Metrics
		}
		if storeStats != nil {
			tr.Store = storeStats[t]
		}
		res.Tenants[t] = tr
	}
	return res, nil
}

// tenantConfigs projects the configs out of the trace set.
func tenantConfigs(tenants []TenantTrace) []TenantConfig {
	out := make([]TenantConfig, len(tenants))
	for i, t := range tenants {
		out[i] = t.Cfg
	}
	return out
}
