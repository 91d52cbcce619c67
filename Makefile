# zombiessd — build, test and reproduction targets. Everything is stdlib Go;
# `make repro` regenerates the paper's tables and figures.

GO ?= go

.PHONY: all build vet test race bench bench-all trace-smoke fuzz-short lifetime-smoke crash-smoke scrub-smoke tenant-smoke gc-smoke chaos-smoke rain-smoke dftl-smoke paper-geometry-smoke repro examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Overhead benchmarks: sim.Run with the observability layer off and on
# (BENCH_telemetry.json), and with the page map in RAM vs flash-resident
# behind a bounded CMT (BENCH_dftl.json).
bench:
	$(GO) test -run='^$$' -bench BenchmarkRunTelemetry -benchmem ./internal/sim \
		| $(GO) run ./cmd/benchjson -o BENCH_telemetry.json
	$(GO) test -run='^$$' -bench BenchmarkRunDftl -benchmem ./internal/sim \
		| $(GO) run ./cmd/benchjson -o BENCH_dftl.json

# The full benchmark sweep: every figure, ablation and micro-benchmark.
bench-all:
	$(GO) test -bench . -benchmem ./...

# Telemetry export smoke: a short instrumented ssdsim run must produce a
# schema-valid Chrome trace and a parsable Prometheus scrape.
trace-smoke:
	$(GO) run ./cmd/ssdsim -workload mail -n 20000 -system dvp -telemetry \
		-telemetry-trace smoke_trace.json -telemetry-prom smoke_metrics.prom >/dev/null
	$(GO) run ./cmd/tracecheck -prom smoke_metrics.prom smoke_trace.json

# Short fuzz smoke over the trace codecs, the recovery scan, the config
# surfaces, the CMT's recycled buffers and the dead-value pool, dedup and
# LX-SSD indexes against their reference models (seed corpora live in
# internal/*/testdata/fuzz/).
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzParseTextRecord -fuzztime=5s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzBinaryReader -fuzztime=5s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzReadFIU -fuzztime=5s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRecoveryScan -fuzztime=5s ./internal/recovery
	$(GO) test -run='^$$' -fuzz=FuzzRBEREstimator -fuzztime=5s ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzTenantConfig -fuzztime=5s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzGCConfig -fuzztime=5s ./internal/faultflags
	$(GO) test -run='^$$' -fuzz=FuzzHealthConfig -fuzztime=5s ./internal/faultflags
	$(GO) test -run='^$$' -fuzz=FuzzDftlConfig -fuzztime=5s ./internal/faultflags
	$(GO) test -run='^$$' -fuzz=FuzzCMTOps -fuzztime=5s ./internal/dftl
	$(GO) test -run='^$$' -fuzz=FuzzMapperOps -fuzztime=5s ./internal/dedup
	$(GO) test -run='^$$' -fuzz=FuzzLXPoolOps -fuzztime=5s ./internal/lxssd
	$(GO) test -run='^$$' -fuzz=FuzzMQOps -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzRainConfig -fuzztime=5s ./internal/rain

# Reduced-scale end-to-end run of the drive-to-death harness: every
# architecture ages under the wear-scaled fault plan and the capacity /
# write-reduction / p99 vs cumulative-erases series must render.
lifetime-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 4000 run lifetime

# Reduced-scale crashsweep: sudden power loss at 4 points per architecture,
# full OOB recovery scan, DVP re-seed and integrity-oracle verification.
crash-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 24000 -crash-points 4 run crashsweep

# Reduced-scale scrubsweep: all five architectures decay under the
# accelerated retention/read-disturb model with the background patrol off
# (uncorrectable reads, data loss, declined revivals) and on (zero loss).
scrub-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 24000 run scrubsweep

# Reduced-scale multi-tenant sweep: a 2-tenant set under WRR across all
# five architectures through the multi-queue host engine, reporting
# per-tenant tail latency, DVP hit rate and the cross-tenant subsidy.
tenant-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 24000 -tenants "mail,trans:ia=0.5" -qos wrr run tenantsweep

# Reduced-scale gcsweep: blocking / soft / partial-k / partial+suspension GC
# policies across all five architectures plus the antagonist tenant pair,
# reporting read p99/p99.9 and the gc-blocked attribution phase.
gc-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 24000 run gcsweep

# Reduced-scale chaos soak: repeated mid-operation power losses composed
# with program/erase faults and RBER decay under the health governor; every
# architecture must survive with zero oracle violations and zero lost pages.
chaos-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 24000 -chaos-seed 7 run chaossweep

# Reduced-scale rainsweep: all five architectures lose one whole die
# mid-trace with intra-SSD RAIN parity off (live pages gone, oracle data
# loss) and on (every page reconstructed from parity, zero loss).
rain-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 24000 run rainsweep

# Reduced-scale dftlsweep: all five architectures with the page map in RAM
# (control) and flash-resident behind a small and a large CMT, reporting the
# translation-vs-data GC split, the mapping write tax and the surviving
# revival win.
dftl-smoke:
	$(GO) run ./cmd/zombiectl -q -requests 24000 run dftlsweep

# Full-drive smoke: one evaluation-matrix cell on the paper's 1 TB Table I
# geometry with the map flash-resident — the sparse host state and flat
# per-block store metadata must keep it inside a CI runner's memory.
paper-geometry-smoke:
	$(GO) test -run=TestPaperGeometryCell -count=1 ./internal/experiments

# Regenerate every table/figure of the paper plus the ablations.
repro:
	$(GO) run ./cmd/zombiectl run all

# CSV output for plotting.
repro-csv:
	$(GO) run ./cmd/zombiectl -csv run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mailserver
	$(GO) run ./examples/lifecycle
	$(GO) run ./examples/dedupcombo
	$(GO) run ./examples/adaptive

clean:
	$(GO) clean ./...
