package main

import (
	"fmt"
	"time"

	"zombiessd/internal/core"
	"zombiessd/internal/dftl"
	"zombiessd/internal/ftl"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// Trace lengths per workload. They keep one replay of a workload (every
// cell, one after another) near two seconds of host time on a 2-core Xeon,
// so a ten-second run holds enough repetitions for a steady median.
const (
	fig9Requests    = 200_000
	hadoopRequests  = 400_000
	tenantsRequests = 300_000
)

// paperRequests and paperPoolEntries reproduce the evaluation matrix's pool
// sizing: 200K paper entries scaled by requests/4M, floored at 64.
const (
	paperRequests    = 4_000_000
	paperPoolEntries = 200_000
)

// cell is one simulated device and the trace replayed through it.
type cell struct {
	name string
	cfg  sim.Config

	// Single-tenant cells replay recs through sim.Run; multi-tenant cells
	// replay tenants through sim.RunTenants with engine.
	recs    []trace.Record
	tenants []sim.TenantTrace
	engine  sim.EngineOptions

	footprint int64
	offered   int64
}

// run replays the cell's trace through dev. Single-tenant results come back
// wrapped so both shapes compare field for field.
func (c *cell) run(dev sim.Device) (sim.MultiResult, error) {
	if c.tenants != nil {
		return sim.RunTenants(dev, c.tenants, c.engine)
	}
	res, err := sim.Run(dev, c.recs, sim.RunOptions{
		LogicalPages:      c.footprint,
		PreconditionPages: c.footprint,
	})
	return sim.MultiResult{Result: res}, err
}

// newDevice builds the cell's device; telemetry, when the workload arms
// it, is a fresh instance per device so repeated replays share nothing.
func (c *cell) newDevice(withTelemetry bool) (sim.Device, error) {
	cfg := c.cfg
	if withTelemetry {
		cfg.Telemetry = telemetry.New(telemetry.Config{Enabled: true})
	}
	return sim.NewDevice(cfg)
}

// spec describes one benchmark workload: how to synthesize its cells from
// a seed, and whether its devices carry telemetry.
type spec struct {
	name      string
	telemetry bool
	synth     func(seed int64) ([]*cell, error)
}

var specs = []spec{
	{name: "fig9-mail", synth: synthFig9},
	{name: "hadoop-dftl", synth: synthHadoopDftl},
	{name: "tenants-telemetry", telemetry: true, synth: synthTenants},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// setupResult is one synthesis of a workload: cells with fresh devices,
// plus the time trace synthesis and device construction took.
type setupResult struct {
	cells      []*cell
	devs       []sim.Device
	generateS  float64
	newDeviceS float64
}

// setup synthesizes the workload's traces and builds one device per cell.
func (s spec) setup(seed int64) (setupResult, error) {
	var out setupResult
	t0 := time.Now()
	cells, err := s.synth(seed)
	if err != nil {
		return out, err
	}
	out.generateS = time.Since(t0).Seconds()
	out.cells = cells
	t1 := time.Now()
	for _, c := range cells {
		dev, err := c.newDevice(s.telemetry)
		if err != nil {
			return out, fmt.Errorf("%s: %w", c.name, err)
		}
		out.devs = append(out.devs, dev)
	}
	out.newDeviceS = time.Since(t1).Seconds()
	return out, nil
}

// deviceConfig mirrors the evaluation matrix's device settings: paper NAND
// latencies, GC free-block threshold 2, popularity-weighted GC on the DVP
// kinds, and pools of 200K paper entries scaled to the trace length.
func deviceConfig(kind sim.Kind, footprint, requests int64, utilization float64) sim.Config {
	entries := int(paperPoolEntries * requests / paperRequests)
	if entries < 64 {
		entries = 64
	}
	popularity := 0.0
	if kind == sim.KindDVP || kind == sim.KindDVPDedup {
		popularity = sim.DefaultPopularityWeight
	}
	return sim.Config{
		Geometry: sim.GeometryFor(footprint, utilization),
		Latency:  ssd.PaperLatency(),
		Store: ftl.StoreConfig{
			GCFreeBlockThreshold: 2,
			PopularityWeight:     popularity,
		},
		LogicalPages: footprint,
		Kind:         kind,
		PoolKind:     sim.PoolMQ,
		MQ:           core.MQConfig{Queues: 8, Capacity: entries, DefaultLifetime: 8192},
		LRUCapacity:  entries,
		LX:           lxssd.Config{Capacity: entries, MinPopularity: 0},
	}
}

// generate synthesizes one named profile's trace and its footprint.
func generate(profile string, n, seed int64) ([]trace.Record, int64, error) {
	p, ok := workload.ProfileByName(profile)
	if !ok {
		return nil, 0, fmt.Errorf("unknown profile %q", profile)
	}
	recs, err := workload.Generate(p, n, seed)
	if err != nil {
		return nil, 0, err
	}
	var footprint int64
	for _, r := range recs {
		if int64(r.LBA) >= footprint {
			footprint = int64(r.LBA) + 1
		}
	}
	return recs, footprint, nil
}

// synthFig9 is the mail trace on the five Fig 9 architectures, sharing one
// trace as the evaluation matrix does.
func synthFig9(seed int64) ([]*cell, error) {
	recs, footprint, err := generate("mail", fig9Requests, seed)
	if err != nil {
		return nil, err
	}
	archs := []struct {
		name string
		kind sim.Kind
	}{
		{"baseline", sim.KindBaseline},
		{"dvp-200k", sim.KindDVP},
		{"dedup", sim.KindDedup},
		{"dvp+dedup", sim.KindDVPDedup},
		{"lx-ssd", sim.KindLX},
	}
	cells := make([]*cell, len(archs))
	for i, a := range archs {
		cells[i] = &cell{
			name:      a.name,
			cfg:       deviceConfig(a.kind, footprint, fig9Requests, 0.75),
			recs:      recs,
			footprint: footprint,
			offered:   int64(len(recs)),
		}
	}
	return cells, nil
}

// hadoopUtilization is the highest utilisation at which the hadoop replay
// with a quarter-footprint CMT neither runs out of free pages nor saturates
// the simulated drive.
const hadoopUtilization = 0.5

// synthHadoopDftl is the hadoop trace on baseline with the flash-resident
// map: a CMT holding a quarter of the footprint's translation pages, with
// batched eviction.
func synthHadoopDftl(seed int64) ([]*cell, error) {
	recs, footprint, err := generate("hadoop", hadoopRequests, seed)
	if err != nil {
		return nil, err
	}
	return []*cell{{
		name:      "baseline-dftl",
		cfg:       hadoopDftlConfig(footprint, hadoopRequests),
		recs:      recs,
		footprint: footprint,
		offered:   int64(len(recs)),
	}}, nil
}

// hadoopDftlConfig is baseline with the flash-resident map behind the
// dftlsweep's small CMT: a quarter of the footprint's translation pages, at
// least two.
func hadoopDftlConfig(footprint, requests int64) sim.Config {
	cfg := deviceConfig(sim.KindBaseline, footprint, requests, hadoopUtilization)
	epp := int64(dftl.EntriesPerPage(cfg.Geometry.PageSize))
	frames := int((footprint+epp-1)/epp) / 4
	if frames < 2 {
		frames = 2
	}
	cfg.DFTL = dftl.Config{Enable: true, CMTFrames: frames, BatchEvict: true}
	return cfg
}

// Tenant engine settings: the tenantsweep defaults.
const (
	tenantQueueDepth  = 8
	tenantDeviceSlots = 8
)

// synthTenants is tenantsweep's antagonist pair on dvp-200k: a mail victim
// of weight 4 beside a trans antagonist arriving 4× as fast in a private
// value space, under the WRR arbiter.
func synthTenants(seed int64) ([]*cell, error) {
	victim, _ := workload.ProfileByName("mail")
	antag, _ := workload.ProfileByName("trans")
	antag.MeanInterarrivalUS /= 4
	antag.ValueBase = 1 << 40
	tenants, err := sim.GenerateTenants([]sim.TenantConfig{
		{Name: "victim-mail", Profile: victim, Weight: 4},
		{Name: "antag-trans", Profile: antag, Weight: 1},
	}, tenantsRequests, seed)
	if err != nil {
		return nil, err
	}
	footprint := sim.TotalFootprint(tenants)
	var offered int64
	for _, t := range tenants {
		offered += int64(len(t.Recs))
	}
	return []*cell{{
		name:    "dvp-200k-wrr",
		cfg:     deviceConfig(sim.KindDVP, footprint, tenantsRequests, 0.75),
		tenants: tenants,
		engine: sim.EngineOptions{
			Arbiter:           sim.ArbWRR,
			QueueDepth:        tenantQueueDepth,
			DeviceSlots:       tenantDeviceSlots,
			PreconditionPages: footprint,
			LogicalPages:      footprint,
		},
		footprint: footprint,
		offered:   offered,
	}}, nil
}
