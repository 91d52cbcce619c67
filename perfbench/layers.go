package main

import "zombiessd/internal/sim"

// layerMetrics derives the per-layer numbers of the traced run: the sim
// engine's span timings, the outcome classes at the device boundary, and
// each layer's counters from the run's results.
func layerMetrics(tr *tracedResult, e2e simTotals) map[string]metric {
	out := map[string]metric{}
	var writeNs, readNs []float64
	var classNs [numClasses][]float64
	var classHostNs [numClasses]int64
	var precondS, selfS float64
	var offered int64
	for i, c := range tr.traces {
		offered += tr.cells[i].offered
		var inCalls int64
		var pStart, pEnd int64 = -1, -1
		for _, s := range c.spans {
			d := s.end - s.start
			inCalls += d
			classNs[s.class] = append(classNs[s.class], float64(d))
			classHostNs[s.class] += d
			if s.class == classPrecond {
				if pStart < 0 {
					pStart = s.start
				}
				pEnd = s.end
				continue
			}
			if s.write {
				writeNs = append(writeNs, float64(d))
			} else {
				readNs = append(readNs, float64(d))
			}
		}
		if pStart >= 0 {
			precondS += float64(pEnd-pStart) / 1e9
		}
		selfS += float64(c.runEnd-c.runStart-inCalls) / 1e9
	}
	out["sim.precond_s"] = metric{precondS, "s"}
	out["sim.write_ns_p50"] = metric{quantile(writeNs, 0.5), "ns"}
	out["sim.write_ns_p99"] = metric{quantile(writeNs, 0.99), "ns"}
	out["sim.read_ns_p50"] = metric{quantile(readNs, 0.5), "ns"}
	out["sim.read_ns_p99"] = metric{quantile(readNs, 0.99), "ns"}
	out["sim.engine_self_s"] = metric{selfS, "s"}
	out["sim.shed_pct"] = metric{100 * ratio(e2e.shed, offered), "%"}
	out["sim.read_p99_samples"] = metric{float64(e2e.readSamples), "count"}
	for cl := 0; cl < numClasses; cl++ {
		if cl == classPrecond {
			continue
		}
		n := classNames[cl]
		out["sim."+n+".calls"] = metric{float64(len(classNs[cl])), "count"}
		out["sim."+n+".host_s"] = metric{float64(classHostNs[cl]) / 1e9, "s"}
		out["sim."+n+".ns_p50"] = metric{quantile(classNs[cl], 0.5), "ns"}
	}

	var (
		poolHits, poolLookups, poolEvictions int64
		dedupHits, dedupWrites               int64
		gcRuns, relocated                    int64
		cmtHits, cmtLookups                  int64
		transPrograms, transGC, mapRMWs      int64
		programs, reads, erases              int64
		util                                 float64
		telemetryEvents                      int64
	)
	for i, c := range tr.traces {
		m := c.result.Metrics
		switch tr.cells[i].cfg.Kind {
		case sim.KindDVP, sim.KindDVPDedup:
			poolHits += m.Pool.Hits
			poolLookups += m.Pool.Hits + m.Pool.Misses
			poolEvictions += m.Pool.Evictions
		}
		switch tr.cells[i].cfg.Kind {
		case sim.KindDedup, sim.KindDVPDedup:
			dedupHits += m.DedupHits
			dedupWrites += m.HostWrites
		}
		gcRuns += m.GC.Runs - m.Dftl.TransGCRuns
		relocated += m.GC.Relocated - m.Dftl.TransRelocated
		cmtHits += m.Dftl.Hits
		cmtLookups += m.Dftl.Hits + m.Dftl.Misses
		transPrograms += m.Dftl.TransPrograms
		transGC += m.Dftl.TransGCRuns
		mapRMWs += m.Dftl.GCMapRMWs
		programs += m.FlashPrograms
		reads += m.FlashReads
		erases += m.FlashErases
		util += c.result.MeanChipUtil
		telemetryEvents += c.telemetryEvs
	}
	out["core.pool_hit_ratio"] = metric{ratio(poolHits, poolLookups), "ratio"}
	out["core.pool_evictions"] = metric{float64(poolEvictions), "count"}
	out["dedup.hit_ratio"] = metric{ratio(dedupHits, dedupWrites), "ratio"}
	out["ftl.gc_runs"] = metric{float64(gcRuns), "count"}
	out["ftl.relocated_per_gc"] = metric{ratio(relocated, gcRuns), "pages"}
	out["dftl.cmt_hit_ratio"] = metric{ratio(cmtHits, cmtLookups), "ratio"}
	out["dftl.trans_programs"] = metric{float64(transPrograms), "count"}
	out["dftl.trans_gc_runs"] = metric{float64(transGC), "count"}
	out["dftl.gc_map_rmws"] = metric{float64(mapRMWs), "count"}
	out["ssd.flash_programs"] = metric{float64(programs), "count"}
	out["ssd.flash_reads"] = metric{float64(reads), "count"}
	out["ssd.flash_erases"] = metric{float64(erases), "count"}
	out["ssd.chip_util_mean"] = metric{util / float64(len(tr.traces)), "ratio"}
	out["telemetry.events"] = metric{float64(telemetryEvents), "count"}
	return out
}
