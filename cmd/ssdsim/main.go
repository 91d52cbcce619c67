// Command ssdsim replays one trace against one simulated SSD configuration
// and prints the full metric block: flash activity, GC, pool behaviour and
// latency summaries. It accepts traces produced by tracegen (binary or
// text codec) or generates a workload on the fly.
//
// Usage:
//
//	ssdsim -workload mail -n 500000 -system dvp
//	ssdsim -trace mail.trace -system baseline
//	tracegen -workload web -n 100000 | ssdsim -trace - -system dvp+dedup
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"zombiessd/internal/core"
	"zombiessd/internal/dftl"
	"zombiessd/internal/fault"
	"zombiessd/internal/faultflags"
	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/rain"
	"zombiessd/internal/scrub"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/telemetryflags"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// params collects every flag-settable knob of one simulation run.
type params struct {
	tracePath, traceFmt string
	workload            string
	n, seed             int64
	system, pool        string
	entries, queues     int
	util                float64
	softGC, wbufPages   int
	streams, precond    bool
	faults              fault.Config
	scrub               scrub.Config
	health              health.Config
	rain                rain.Config
	dftl                dftl.Config
	paperGeom           bool
	gcFaultWeight       float64
	preempt             ftl.PreemptConfig
	drainSuspects       bool
	tenants, qos        string
	qd                  int
	tel                 *telemetryflags.Set
}

func main() {
	var p params
	flag.StringVar(&p.tracePath, "trace", "", "trace file ('-' = stdin); empty generates -workload")
	flag.StringVar(&p.traceFmt, "tracefmt", "binary", "trace input codec: binary, text, or fiu (FIU/SRCMap)")
	flag.StringVar(&p.workload, "workload", "mail", "workload to generate when no -trace is given")
	flag.Int64Var(&p.n, "n", 200_000, "requests to generate when no -trace is given")
	flag.Int64Var(&p.seed, "seed", 1, "generator seed")
	flag.StringVar(&p.system, "system", "dvp", "system: baseline, dvp, dedup, dvp+dedup, lx")
	flag.StringVar(&p.pool, "pool", "mq", "dead-value pool policy for dvp systems: mq, lru, infinite")
	flag.IntVar(&p.entries, "entries", 20_000, "dead-value pool capacity in entries")
	flag.IntVar(&p.queues, "queues", 8, "MQ queue count")
	flag.Float64Var(&p.util, "util", 0.75, "drive utilization (footprint / exported capacity)")
	flag.IntVar(&p.softGC, "softgc", 0, "background GC soft threshold in free blocks (0 = off)")
	flag.IntVar(&p.wbufPages, "wbuf", 0, "DRAM write-back buffer size in 4KB pages (0 = none)")
	flag.BoolVar(&p.streams, "streams", false, "hot/cold multi-stream write placement")
	flag.BoolVar(&p.precond, "precondition", true, "fill the footprint before the timed run")
	flag.BoolVar(&p.paperGeom, "paper-geometry", false, "use the paper's full Table I 1 TB geometry instead of scaling the drive to the trace footprint")
	rf := faultflags.Register(flag.CommandLine)
	p.tel = telemetryflags.Register(flag.CommandLine)
	flag.BoolVar(&p.drainSuspects, "gc-drain-suspects", false, "GC drains blocks at the suspect threshold first")
	flag.StringVar(&p.tenants, "tenants", "", "multi-tenant run: tenant set (a count like 2, or specs like mail,trans:weight=2); empty = single-stream replay")
	flag.StringVar(&p.qos, "qos", "fifo", "QoS arbiter for -tenants runs: fifo, wrr or tbucket")
	flag.IntVar(&p.qd, "qd", 0, "per-tenant queue depth and shared device-slot bound for -tenants runs (0 = unlimited)")
	var crashAt int64
	flag.Int64Var(&crashAt, "crash-at", 0, "cut power during the Nth flash op (1-based, preconditioning included; 0 = never), then recover, verify and finish the trace")
	flag.Parse()

	// Reject out-of-range flag values up front with a clear message.
	if err := rf.Validate(); err != nil {
		fatalFlag("%v", err)
	}
	if err := p.tel.Validate(); err != nil {
		fatalFlag("%v", err)
	}
	if crashAt < 0 {
		fatalFlag("-crash-at must be ≥ 0, got %d", crashAt)
	}
	if p.tenants != "" {
		if _, err := sim.ParseTenants(p.tenants); err != nil {
			fatalFlag("-tenants: %v", err)
		}
		if p.tracePath != "" {
			fatalFlag("-tenants generates its own workloads; it cannot be combined with -trace")
		}
		if crashAt > 0 {
			fatalFlag("-tenants cannot be combined with -crash-at")
		}
	}
	if _, err := sim.ParseArbiterKind(p.qos); err != nil {
		fatalFlag("-qos: %v", err)
	}
	if p.qd < 0 {
		fatalFlag("-qd must be ≥ 0, got %d", p.qd)
	}
	p.faults, p.scrub, p.gcFaultWeight = rf.Faults, rf.Scrub, rf.GCFaultWeight
	p.preempt = rf.Preempt()
	p.health = rf.Health()
	p.rain = rf.Rain()
	p.dftl = rf.Dftl()
	p.faults.CrashAtOp = crashAt

	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		os.Exit(1)
	}
}

func run(p params) error {
	if p.tenants != "" {
		return runMultiTenant(p)
	}
	recs, err := loadTrace(p.tracePath, p.traceFmt, p.workload, p.n, p.seed)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("empty trace")
	}
	var footprint int64
	for _, r := range recs {
		if int64(r.LBA) >= footprint {
			footprint = int64(r.LBA) + 1
		}
	}
	cfg := simConfig(p, footprint)
	tel := telemetry.New(p.tel.Telemetry)
	cfg.Telemetry = tel
	dev, err := sim.NewDevice(cfg)
	if err != nil {
		return err
	}
	if p.faults.CrashAtOp > 0 {
		if err := runWithCrash(cfg, dev, recs, footprint, p.precond); err != nil {
			return err
		}
		return p.tel.WriteExports(tel)
	}
	opts := sim.RunOptions{LogicalPages: footprint}
	if p.precond {
		opts.PreconditionPages = footprint
	}
	res, err := sim.Run(dev, recs, opts)
	if err != nil {
		return err
	}
	printResult(cfg, len(recs), res)
	return p.tel.WriteExports(tel)
}

// runMultiTenant generates one seeded stream per configured tenant and
// drives them through the multi-queue host engine under the chosen
// arbiter, printing the aggregate block followed by one line per tenant.
func runMultiTenant(p params) error {
	cfgs, err := sim.ParseTenants(p.tenants)
	if err != nil {
		return err
	}
	arb, err := sim.ParseArbiterKind(p.qos)
	if err != nil {
		return err
	}
	traces, err := sim.GenerateTenants(cfgs, p.n, p.seed)
	if err != nil {
		return err
	}
	footprint := sim.TotalFootprint(traces)
	cfg := simConfig(p, footprint)
	tel := telemetry.New(p.tel.Telemetry)
	cfg.Telemetry = tel
	dev, err := sim.NewDevice(cfg)
	if err != nil {
		return err
	}
	opts := sim.EngineOptions{Arbiter: arb, QueueDepth: p.qd, DeviceSlots: p.qd, LogicalPages: footprint}
	if p.precond {
		opts.PreconditionPages = footprint
	}
	mr, err := sim.RunTenants(dev, traces, opts)
	if err != nil {
		return err
	}
	var requests int
	for _, t := range traces {
		requests += len(t.Recs)
	}
	printResult(cfg, requests, mr.Result)
	fmt.Printf("qos         %s (qd=%d)\n", arb, p.qd)
	for _, tr := range mr.Tenants {
		fmt.Printf("tenant %-16s n=%-8d rej=%-6d mean=%.1fµs p99=%dµs p99.9=%dµs wait=%.1fµs dvp-hit=%.1f%% WA=%.2f rev-other=%d rev-by-other=%d\n",
			tr.Name, tr.Requests, tr.Rejected, tr.All.Mean, tr.All.P99, tr.P999,
			tr.Wait.Mean, tr.DVPHitPct(), tr.Metrics.WriteAmplification(),
			tr.Store.RevivedOther, tr.Store.RevivedByOther)
	}
	return p.tel.WriteExports(tel)
}

// simConfig assembles the device configuration shared by the single-stream
// and multi-tenant paths for a run addressing footprint logical pages.
func simConfig(p params, footprint int64) sim.Config {
	kind := sim.Kind(strings.ToLower(p.system))
	if kind == "lx-ssd" {
		kind = sim.KindLX
	}
	popWeight := 0.0
	if kind == sim.KindDVP || kind == sim.KindDVPDedup {
		popWeight = sim.DefaultPopularityWeight
	}
	geo := sim.GeometryFor(footprint, p.util)
	if p.paperGeom {
		geo = ssd.PaperGeometry()
	}
	return sim.Config{
		Geometry: geo,
		Latency:  ssd.PaperLatency(),
		Store: ftl.StoreConfig{GCFreeBlockThreshold: 2, PopularityWeight: popWeight, SoftGCThreshold: p.softGC,
			FaultPenaltyWeight: p.gcFaultWeight, DrainSuspects: p.drainSuspects, Preempt: p.preempt},
		LogicalPages: footprint,
		Kind:         kind,
		PoolKind:     sim.PoolKind(strings.ToLower(p.pool)),
		MQ:           core.MQConfig{Queues: p.queues, Capacity: p.entries, DefaultLifetime: 8192},
		LRUCapacity:  p.entries,
		Adaptive: core.AdaptiveConfig{
			MQ:          core.MQConfig{Queues: p.queues, Capacity: p.entries, DefaultLifetime: 8192},
			MinCapacity: p.entries / 4,
			MaxCapacity: p.entries * 8,
			Window:      8192,
			Step:        0.25,
		},
		LX:               lxssd.Config{Capacity: p.entries, MinPopularity: 2},
		WriteBufferPages: p.wbufPages,
		HotColdStreams:   p.streams,
		Faults:           p.faults,
		Scrub:            p.scrub,
		Health:           p.health,
		RAIN:             p.rain,
		DFTL:             p.dftl,
	}
}

// runWithCrash replays the trace with the power-loss trigger armed: when
// it fires, the device recovers from its OOB metadata and journal, the
// integrity oracle checks every durably acknowledged page, and the rest of
// the trace runs on the recovered device.
func runWithCrash(cfg sim.Config, dev sim.Device, recs []trace.Record, footprint int64, precond bool) error {
	c, err := sim.NewChecked(dev, footprint)
	if err != nil {
		return err
	}
	if precond {
		if err := c.Precondition(); err != nil {
			return err
		}
	}
	crashed := false
	for i, rec := range recs {
		_, err := c.Do(rec)
		if err == nil {
			continue
		}
		if crashed || !errors.Is(err, fault.ErrPowerLoss) {
			return fmt.Errorf("record %d: %w", i, err)
		}
		crashed = true
		rep, rerr := c.Recover(err, sim.RecoverOptions{})
		if rerr != nil {
			return fmt.Errorf("recovery after crash at record %d: %w", i, rerr)
		}
		viol := c.Verify()
		fmt.Printf("power loss  at record %d (flash op %d)\n", i, cfg.Faults.CrashAtOp)
		fmt.Printf("recovery    scanned=%d pages (%.1f ms at %dµs/read)  torn=%d  bad-skipped=%d\n",
			rep.PagesScanned, float64(rep.ScanCost(cfg.Latency.Read))/float64(ssd.Millisecond),
			cfg.Latency.Read/ssd.Microsecond, rep.TornDiscarded, rep.BadSkipped)
		fmt.Printf("rebuilt     mappings=%d  zombies=%d  journal replayed=%d discarded=%d\n",
			rep.Winners, rep.Garbage, rep.JournalReplayed, rep.JournalDiscarded)
		fmt.Printf("oracle      %d pages checked, %d violations\n", c.Pages(), len(viol))
		for _, v := range viol {
			fmt.Printf("  VIOLATION %v\n", v)
		}
	}
	if !crashed {
		fmt.Printf("power loss  never fired (-crash-at %d beyond the run's flash ops)\n", cfg.Faults.CrashAtOp)
	}
	finalViol := c.Verify()
	fmt.Printf("final       %d pages checked, %d violations after finishing the trace\n", c.Pages(), len(finalViol))
	m := dev.Metrics()
	fmt.Printf("flash       programs=%d reads=%d erases=%d  revived=%d dedupHits=%d\n",
		m.FlashPrograms, m.FlashReads, m.FlashErases, m.Revived, m.DedupHits)
	fmt.Printf("pool        %v\n", m.Pool)
	if len(finalViol) > 0 {
		return fmt.Errorf("integrity oracle reported %d violations", len(finalViol))
	}
	return nil
}

// fatalFlag reports a bad flag value and exits like flag's own errors do.
func fatalFlag(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "ssdsim: "+format+"\n", a...)
	os.Exit(2)
}

func loadTrace(tracePath, traceFmt, name string, n, seed int64) ([]trace.Record, error) {
	if tracePath == "" {
		p, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		return workload.Generate(p, n, seed)
	}
	var r io.Reader = os.Stdin
	if tracePath != "-" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	switch traceFmt {
	case "binary":
		return trace.NewReader(r).ReadAll()
	case "text":
		return trace.ReadText(r)
	case "fiu":
		return trace.ReadFIU(r)
	default:
		return nil, fmt.Errorf("unknown trace format %q (want binary, text or fiu)", traceFmt)
	}
}

func printResult(cfg sim.Config, requests int, res sim.Result) {
	m := res.Metrics
	fmt.Printf("system      %s (pool=%s)\n", cfg.Kind, cfg.PoolKind)
	fmt.Printf("geometry    %s\n", cfg.Geometry)
	fmt.Printf("requests    %d (%d writes, %d reads)\n", requests, m.HostWrites, m.HostReads)
	fmt.Printf("flash       programs=%d (host %d, GC %d)  reads=%d  erases=%d\n",
		m.FlashPrograms, m.HostPrograms(), m.GC.Relocated, m.FlashReads, m.FlashErases)
	fmt.Printf("short-circ  revived=%d  dedupHits=%d  (%.1f%% of writes)\n",
		m.Revived, m.DedupHits, 100*float64(m.ShortCircuited())/float64(max64(m.HostWrites, 1)))
	fmt.Printf("gc          %+v\n", m.GC)
	if cfg.Faults.Enabled() || cfg.Faults.IntegrityArmed() {
		fmt.Printf("faults      %+v\n", m.Faults)
	}
	if cfg.Scrub.Enabled() {
		fmt.Printf("scrub       %+v\n", m.Scrub)
	}
	if cfg.Health.Enabled() {
		fmt.Printf("health      %+v\n", res.Health)
	}
	if cfg.RAIN.Enabled() {
		fmt.Printf("rain        %+v\n", m.Rain)
	}
	if cfg.DFTL.Enable {
		fmt.Printf("dftl        hit=%.1f%%  %+v\n", m.Dftl.HitRate()*100, m.Dftl)
	}
	fmt.Printf("pool        %v\n", m.Pool)
	fmt.Printf("latency all    %v\n", res.All)
	fmt.Printf("latency reads  %v\n", res.Reads)
	fmt.Printf("latency writes %v\n", res.Writes)
	fmt.Printf("makespan    %.3fs\n", float64(res.Makespan)/1e6)
	if res.MeanChipUtil > 0 {
		fmt.Printf("chips       mean util=%.1f%%  max util=%.1f%%  (of makespan)\n",
			res.MeanChipUtil*100, res.MaxChipUtil*100)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
