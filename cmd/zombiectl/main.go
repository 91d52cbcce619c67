// Command zombiectl regenerates the paper's tables and figures.
//
// Usage:
//
//	zombiectl list
//	zombiectl run <id>...        # e.g. zombiectl run fig9 fig10
//	zombiectl run all
//
// Flags scale the experiments; see -h. Full-simulation figures (9–12,
// 14–15) share one evaluation matrix per invocation, so `run all` simulates
// each (workload, system) pair exactly once.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"zombiessd/internal/experiments"
	"zombiessd/internal/faultflags"
	"zombiessd/internal/sim"
	"zombiessd/internal/telemetryflags"
)

func main() {
	opts := experiments.DefaultOptions()
	flag.Int64Var(&opts.Requests, "requests", opts.Requests, "requests per workload (per day for day studies)")
	flag.IntVar(&opts.Days, "days", opts.Days, "days for the per-day figures (1 and 5)")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "workload generator seed")
	flag.Float64Var(&opts.Utilization, "util", opts.Utilization, "drive utilization (footprint / exported capacity)")
	rf := faultflags.Register(flag.CommandLine)
	tf := telemetryflags.Register(flag.CommandLine)
	flag.IntVar(&opts.Jobs, "j", 0, "parallel matrix and sweep workers (0 = all cores); results are identical for every value")
	telCell := flag.String("telemetry-cell", "mail/dvp-200k",
		"matrix cell (workload/system) whose telemetry the -telemetry-* exports cover")
	flag.IntVar(&opts.CrashPoints, "crash-points", experiments.DefaultCrashPoints, "sudden-power-loss points per architecture in the crashsweep experiment")
	flag.Int64Var(&opts.CrashSeed, "crash-seed", 0, "crash-point placement seed for the crashsweep experiment")
	flag.StringVar(&opts.TenantSpec, "tenants", "", "tenantsweep tenant set (a count like 2, or specs like mail,trans:weight=2:ia=0.5); empty = built-in 1→8 ladder plus antagonist arm")
	flag.StringVar(&opts.QoSPolicies, "qos", "fifo,wrr", "comma-separated QoS arbiters the tenantsweep crosses: fifo, wrr, tbucket")
	flag.IntVar(&opts.QueueDepth, "qd", 0, "per-tenant queue-depth bound for multi-tenant cells (0 = tenantsweep default)")
	flag.BoolVar(&opts.PaperGeometry, "paper-geometry", false, "run matrix cells on the paper's full Table I 1 TB geometry instead of footprint-scaled drives")
	quiet := flag.Bool("q", false, "suppress progress notes on stderr")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text tables")
	flag.Usage = usage
	flag.Parse()

	// Reject out-of-range flag values up front with a clear message, not a
	// deep experiment error.
	if err := rf.Validate(); err != nil {
		fatalFlag("%v", err)
	}
	if err := tf.Validate(); err != nil {
		fatalFlag("%v", err)
	}
	if opts.Jobs < 0 {
		fatalFlag("-j must be ≥ 0 (0 = all cores), got %d", opts.Jobs)
	}
	cellWorkload, cellSys, ok := strings.Cut(*telCell, "/")
	if !ok || cellWorkload == "" || cellSys == "" {
		fatalFlag("-telemetry-cell must be workload/system (e.g. mail/dvp-200k), got %q", *telCell)
	}
	if opts.CrashPoints <= 0 {
		fatalFlag("-crash-points must be positive, got %d", opts.CrashPoints)
	}
	if opts.CrashSeed < 0 {
		fatalFlag("-crash-seed must be ≥ 0, got %d", opts.CrashSeed)
	}
	if opts.TenantSpec != "" {
		if _, err := sim.ParseTenants(opts.TenantSpec); err != nil {
			fatalFlag("-tenants: %v", err)
		}
	}
	if _, err := sim.ParseArbiterList(opts.QoSPolicies); err != nil {
		fatalFlag("-qos: %v", err)
	}
	if opts.QueueDepth < 0 {
		fatalFlag("-qd must be ≥ 0, got %d", opts.QueueDepth)
	}
	opts.Faults, opts.Scrub, opts.GCFaultWeight = rf.Faults, rf.Scrub, rf.GCFaultWeight
	opts.GCPreempt = rf.Preempt()
	opts.Health = rf.Health()
	opts.Rain = rf.Rain()
	opts.ChaosCycles, opts.ChaosSeed = rf.ChaosCycles, rf.ChaosSeed
	opts.Dftl = rf.Dftl()
	opts.Telemetry = tf.Telemetry

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case "run":
		ids := args[1:]
		if len(ids) == 0 {
			fmt.Fprintln(os.Stderr, "zombiectl: run needs experiment ids (or 'all')")
			os.Exit(2)
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
		}
		if err := runExperiments(opts, ids, *quiet, *csv, tf, cellWorkload, cellSys); err != nil {
			fmt.Fprintln(os.Stderr, "zombiectl:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "zombiectl: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
}

func runExperiments(opts experiments.Options, ids []string, quiet, csv bool,
	tf *telemetryflags.Set, cellWorkload, cellSys string) error {
	note := func(format string, a ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, a...)
		}
	}
	// Build the evaluation matrix once if any requested experiment needs it.
	var matrix *experiments.Matrix
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'zombiectl list')", id)
		}
		if e.NeedsMatrix && matrix == nil {
			note("building evaluation matrix (6 workloads × 8 systems, %d requests each)...\n", opts.Requests)
			start := time.Now()
			m, err := experiments.RunMatrix(opts, nil, nil)
			if err != nil {
				return err
			}
			matrix = m
			note("matrix done in %v\n", time.Since(start).Round(time.Millisecond))
		}
	}
	for _, id := range ids {
		e, _ := experiments.ByID(id)
		note("running %s...\n", id)
		start := time.Now()
		res, err := e.Run(opts, matrix)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		note("%s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		if csv {
			fmt.Println(res.Table().CSV())
		} else {
			fmt.Println(res.Table().String())
		}
	}
	if tf.WantsExport() {
		if matrix == nil {
			return fmt.Errorf("telemetry exports need a matrix experiment (e.g. 'run fig9'); none of %v builds the matrix", ids)
		}
		tel := matrix.TelemetryFor(cellWorkload, experiments.System(cellSys))
		if tel == nil {
			return fmt.Errorf("no telemetry for cell %s/%s (unknown workload or system?)", cellWorkload, cellSys)
		}
		note("writing telemetry exports for %s/%s...\n", cellWorkload, cellSys)
		if err := tf.WriteExports(tel); err != nil {
			return err
		}
	}
	return nil
}

// fatalFlag reports a bad flag value and exits like flag's own errors do.
func fatalFlag(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "zombiectl: "+format+"\n", a...)
	os.Exit(2)
}

func usage() {
	fmt.Fprintf(os.Stderr, `zombiectl regenerates the tables and figures of
"Reviving Zombie Pages on SSDs" (IISWC 2018).

usage:
  zombiectl [flags] list
  zombiectl [flags] run <id>... | all

flags:
`)
	flag.PrintDefaults()
}
