// Command perfbench is the repository's benchmark. It synthesizes one of
// three replay workloads from a seed, replays it cell by cell on one
// goroutine through the public sim API, checks every replay's outputs, and
// prints end-to-end metrics (--trace 0) or per-layer metrics (--trace 1) as
// the last line of standard output:
//
//	bash perfbench/run.sh --workload fig9-mail --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"zombiessd/internal/ftl"
	"zombiessd/internal/sim"
	"zombiessd/internal/trace"
)

// minReps is the fewest timed replays a run makes, however short --seconds.
const minReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig9-mail, hadoop-dftl or tenants-telemetry")
		seed    = flag.Int64("seed", 1, "seed every trace is synthesized from")
		seconds = flag.Int("seconds", 10, "host seconds of timed replays")
		traced  = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	)
	flag.Parse()
	s, ok := specByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (fig9-mail, hadoop-dftl, tenants-telemetry), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	rep, err := runBenchmark(s, *seed, time.Duration(*seconds)*time.Second, *traced == 1, filepath.Join(".bench_out", s.name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !rep.Correct {
		os.Exit(1)
	}
}

// repTiming is what one timed replay of the whole workload measured.
// Scaled seconds are host seconds at the reference machine speed (see
// calib.go); the rest are plain wall-clock.
type repTiming struct {
	setupS                float64 // scaled
	generateS, newDeviceS float64
	runS, wallRunS        float64 // inside sim.Run / sim.RunTenants; scaled, wall
	mallocs, allocBytes   uint64
	heapLiveMB            float64 // highest over cells
}

// checkFailure is an output check that did not hold; the run reports
// incorrect instead of stopping at the first one.
type checkFailure struct {
	msgs       []string
	mismatches int64 // logical pages whose read-back was wrong
	errored    int64 // requests of cells whose replay returned an error
}

func (f *checkFailure) add(format string, args ...any) {
	f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
}

func runBenchmark(s spec, seed int64, budget time.Duration, traced bool, outDir string) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	var fail checkFailure

	cal, err := newCalibrator()
	if err != nil {
		return rep, err
	}
	// The traced run comes first: it fixes the reference results every
	// timed replay must reproduce, and the tenant workload's read-back
	// expectations.
	tr, err := tracedRun(s, seed, cal, traced, outDir)
	if err != nil {
		return rep, err
	}
	var offered int64
	for _, c := range tr.cells {
		offered += c.offered
	}

	var reps []repTiming
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		rt, err := timedRep(s, seed, cal, tr, &fail)
		if err != nil {
			return rep, err
		}
		reps = append(reps, rt)
	}
	rep.Attempted = offered * int64(len(reps))

	e2e := simMetrics(tr)
	for _, m := range fail.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}
	rep.Failed = fail.mismatches + fail.errored
	rep.Correct = len(fail.msgs) == 0
	served := float64(offered-e2e.shed) - float64(rep.Failed)/float64(len(reps))
	e2e.metrics["served_ops_pct"] = metric{100 * served / float64(offered), "%"}

	setup := make([]float64, len(reps))
	reqPerS := make([]float64, len(reps))
	allocs := make([]float64, len(reps))
	bytes := make([]float64, len(reps))
	heap := make([]float64, len(reps))
	gen := make([]float64, len(reps))
	newDev := make([]float64, len(reps))
	runS := make([]float64, len(reps))
	wallReqPerS := make([]float64, len(reps))
	for i, r := range reps {
		setup[i] = r.setupS
		reqPerS[i] = float64(offered) / r.runS
		wallReqPerS[i] = float64(offered) / r.wallRunS
		allocs[i] = float64(r.mallocs) / float64(offered)
		bytes[i] = float64(r.allocBytes) / float64(offered)
		heap[i] = r.heapLiveMB
		gen[i] = r.generateS
		newDev[i] = r.newDeviceS
		runS[i] = r.runS
	}
	e2e.metrics["setup_s"] = metric{median(setup), "s"}
	e2e.metrics["sim_req_per_s"] = metric{median(reqPerS), "req/s"}
	e2e.metrics["allocs_per_req"] = metric{median(allocs), "objects"}
	e2e.metrics["alloc_bytes_per_req"] = metric{median(bytes), "B"}
	e2e.metrics["heap_live_mb"] = metric{median(heap), "MiB"}
	printSummary(s.name, len(reps), e2e.metrics, e2e.readSamples)
	fmt.Fprintf(os.Stderr, "  (sim_req_per_s at wall-clock speed: %.6g)\n", median(wallReqPerS))

	if !traced {
		rep.Metrics = e2e.metrics
		return rep, nil
	}
	layers := layerMetrics(tr, e2e)
	layers["workload.generate_s"] = metric{median(gen), "s"}
	layers["sim.new_device_s"] = metric{median(newDev), "s"}
	layers["sim.trace_overhead_pct"] = metric{100 * (tr.runS/median(runS) - 1), "%"}
	layers["sim.wall_req_per_s"] = metric{median(wallReqPerS), "req/s"}
	micro, err := runMicrobenchmarks(seed, tr)
	if err != nil {
		return rep, err
	}
	for k, v := range micro {
		layers[k] = v
	}
	rep.Metrics = layers
	return rep, nil
}

// timedRep synthesizes the workload, replays every cell untraced and checks
// the outputs against the traced run's results.
func timedRep(s spec, seed int64, cal *calibrator, tr *tracedResult, fail *checkFailure) (repTiming, error) {
	var rt repTiming
	var su setupResult
	var err error
	_, rt.setupS = cal.timed(func() { su, err = s.setup(seed) })
	if err != nil {
		return rt, err
	}
	rt.generateS, rt.newDeviceS = su.generateS, su.newDeviceS
	var before, after runtime.MemStats
	for i, c := range su.cells {
		dev := su.devs[i]
		// Start every replay from a collected heap, so no replay pays for
		// collecting an earlier one's garbage.
		runtime.GC()
		runtime.ReadMemStats(&before)
		var res sim.MultiResult
		var err error
		wall, scaled := cal.timed(func() { res, err = c.run(dev) })
		runtime.ReadMemStats(&after)
		rt.runS += scaled
		rt.wallRunS += wall
		rt.mallocs += after.Mallocs - before.Mallocs
		rt.allocBytes += after.TotalAlloc - before.TotalAlloc
		runtime.GC()
		runtime.ReadMemStats(&after)
		if mb := float64(after.HeapAlloc) / (1 << 20); mb > rt.heapLiveMB {
			rt.heapLiveMB = mb
		}
		if err != nil {
			fail.errored += c.offered
			fail.add("%s: replay: %v", c.name, err)
			continue
		}
		checkCell(c, dev, res, tr.traces[i], tr.expected[i], fail)
		runtime.KeepAlive(dev)
	}
	return rt, nil
}

// checkCell runs the output checks of one untraced replay: bit identity
// with the traced replay, the accounting identity, and the read-back
// oracle over every logical page.
func checkCell(c *cell, dev sim.Device, res sim.MultiResult, ref cellTrace, want []trace.Hash, fail *checkFailure) {
	if !reflect.DeepEqual(res, ref.result) {
		fail.add("%s: untraced result differs from the traced run's", c.name)
	}
	var shed int64
	for _, t := range res.Tenants {
		shed += t.Rejected
	}
	if dispatched := dispatchedOf(res); dispatched+shed != c.offered {
		fail.add("%s: dispatched %d + shed %d != offered %d", c.name, dispatched, shed, c.offered)
	}
	hr, ok := dev.(sim.HashReader)
	if !ok {
		fail.add("%s: device %T cannot read back content", c.name, dev)
		return
	}
	var bad int64
	for lpn, h := range want {
		got, ok := hr.ReadHash(ftl.LPN(lpn))
		if !ok || got != h {
			bad++
		}
	}
	if bad > 0 {
		fail.mismatches += bad
		fail.add("%s: %d logical pages read back wrong content", c.name, bad)
	}
}

// expectedFromTrace derives each logical page's final content from a
// single-tenant trace: its last write, or the preconditioning content.
func expectedFromTrace(recs []trace.Record, footprint int64) []trace.Hash {
	out := make([]trace.Hash, footprint)
	for lpn := range out {
		out[lpn] = sim.PreconditionHash(int64(lpn))
	}
	for _, r := range recs {
		if r.Op == trace.OpWrite {
			out[r.LBA] = r.Hash
		}
	}
	return out
}

// tracedResult is the traced run of a workload.
type tracedResult struct {
	cells    []*cell
	traces   []cellTrace
	expected [][]trace.Hash
	runS     float64 // scaled host seconds inside sim.Run / sim.RunTenants
}

// tracedRun replays every cell once through a tracedDevice. With profile
// set it also writes a CPU profile of the replay, a heap profile at its end
// and the spans, under outDir.
func tracedRun(s spec, seed int64, cal *calibrator, profile bool, outDir string) (*tracedResult, error) {
	su, err := s.setup(seed)
	if err != nil {
		return nil, err
	}
	out := &tracedResult{cells: su.cells}
	var stopProfile func()
	if profile {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if stopProfile, err = startCPUProfile(filepath.Join(outDir, "cpu.pprof")); err != nil {
			return nil, err
		}
		defer func() {
			if stopProfile != nil {
				stopProfile()
			}
		}()
	}
	t0 := time.Now()
	for i, c := range su.cells {
		td, err := newTracedDevice(su.devs[i], c.footprint, c.footprint, t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		ct := cellTrace{name: c.name}
		var res sim.MultiResult
		runtime.GC()
		_, scaled := cal.timed(func() {
			ct.runStart = time.Since(t0).Nanoseconds()
			res, err = c.run(td)
			ct.runEnd = time.Since(t0).Nanoseconds()
		})
		if err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", c.name, err)
		}
		out.runS += scaled
		ct.spans, ct.result = td.spans, res
		if tel := sim.StoreOf(td).Telemetry(); tel != nil {
			if tracer := tel.Tracer(); tracer != nil {
				ct.telemetryEvs = int64(len(tracer.Events())) + tracer.Dropped()
			}
		}
		if calls, dispatched := td.calls-td.precond, dispatchedOf(res); calls != dispatched {
			return nil, fmt.Errorf("%s: %d device calls but %d requests dispatched", c.name, calls, dispatched)
		}
		if c.tenants != nil {
			out.expected = append(out.expected, td.expected())
		} else {
			out.expected = append(out.expected, expectedFromTrace(c.recs, c.footprint))
		}
		out.traces = append(out.traces, ct)
	}
	if profile {
		stopProfile()
		stopProfile = nil
		// Every cell's device is still reachable here, so the heap profile
		// shows what the simulated drives hold.
		if err := writeHeapProfile(filepath.Join(outDir, "heap.pprof")); err != nil {
			return nil, err
		}
		runtime.KeepAlive(su.devs)
		if err := writeSpans(filepath.Join(outDir, "spans.csv.gz"), out.traces); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// simTotals are the simulated end-to-end metrics of the traced run, which
// every timed replay reproduces bit for bit.
type simTotals struct {
	metrics     map[string]metric
	shed        int64
	readSamples int64
}

func simMetrics(tr *tracedResult) simTotals {
	var writes, programs, erases, latN int64
	var latSum float64
	var p99 int64
	out := simTotals{metrics: map[string]metric{}}
	for _, c := range tr.traces {
		r := c.result
		writes += r.Metrics.HostWrites
		programs += r.Metrics.FlashPrograms
		erases += r.Metrics.FlashErases
		latSum += r.All.Mean * float64(r.All.Count)
		latN += r.All.Count
		if r.Reads.P99 > p99 || (r.Reads.P99 == p99 && r.Reads.Count > out.readSamples) {
			p99, out.readSamples = r.Reads.P99, r.Reads.Count
		}
		for _, t := range r.Tenants {
			out.shed += t.Rejected
		}
	}
	out.metrics["sim_waf"] = metric{ratio(programs, writes), "ratio"}
	out.metrics["sim_erases_per_kwrite"] = metric{1000 * ratio(erases, writes), "erases"}
	out.metrics["sim_lat_mean_us"] = metric{latSum / float64(latN), "us"}
	out.metrics["sim_read_p99_us"] = metric{float64(p99), "us"}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func printSummary(name string, reps int, ms map[string]metric, readSamples int64) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench %s: %d timed replays\n", name, reps)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-22s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "  (sim_read_p99_us over %d read samples)\n", readSamples)
}

// dispatchedOf counts the requests the engine handed to the device:
// completed ones plus writes a read-only device refused.
func dispatchedOf(res sim.MultiResult) int64 {
	n := res.All.Count
	for _, t := range res.Tenants {
		n += t.WritesRejected
	}
	return n
}
