package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zombiessd/internal/ssd"
)

// pinnedRun drives a small fixed instrumented sequence through a fresh
// instance: host ops with and without queue wait, requests whose phase
// decompositions mix zero and non-zero components (GC-blocked, ECC,
// map-miss, controller residue), GC and scrub spans with args, ops outside
// any request scope, two declared tenants and periodic samples.
func pinnedRun(traceCap int) *Telemetry {
	tel := New(Config{Enabled: true, TraceCap: traceCap, SampleInterval: 250})
	geo := ssd.ScaledGeometry(64)
	tel.Attach(geo)
	tel.DeclareTenants([]string{"victim", "antagonist"})
	var depth float64
	tel.RegisterGauge("queue_depth", "pinned gauge", Labels{"q": "0"},
		func(ssd.Time) float64 { return depth })

	chips := geo.TotalChips()
	for i := 0; i < 24; i++ {
		at := ssd.Time(100 * i)
		depth = float64(i % 5)
		tel.Sample(at)
		op := ReqRead
		if i%3 != 0 {
			op = ReqWrite
		}
		tel.BeginRequestTenant(op, at, at+ssd.Time(i%4), i%2)
		clock := at + ssd.Time(i%4)
		if i%4 == 1 {
			prev := tel.EnterOrigin(OriginGC)
			tel.ObserveOp(ssd.OpObservation{Kind: ssd.OpErase, Chip: i % chips,
				Channel: geo.ChannelOfChip(i % chips),
				Issue:   clock, Start: clock, Cell: 30, Done: clock + 30})
			tel.ExitOrigin(prev)
			tel.EmitSpan(OriginGC, "gc cycle", clock, clock+30,
				map[string]any{"victim": int64(i), "relocated": i % 3})
		}
		if i%5 == 2 {
			prev := tel.EnterMapPhase(OriginMapMiss)
			tel.ObserveOp(ssd.OpObservation{Kind: ssd.OpRead, Chip: (i + 1) % chips,
				Channel: geo.ChannelOfChip((i + 1) % chips),
				Issue:   clock, Start: clock + 2, Transfer: 3, Cell: 9, Done: clock + 14})
			tel.ExitOrigin(prev)
			clock += 14
		}
		wait := ssd.Time(0)
		if i%2 == 1 {
			wait = ssd.Time(i % 7) // 1 µs and 0 µs waits included
		}
		kind := ssd.OpRead
		if op == ReqWrite {
			kind = ssd.OpProgram
		}
		chip := (i * 7) % chips
		tel.ObserveOp(ssd.OpObservation{Kind: kind, Chip: chip,
			Channel: geo.ChannelOfChip(chip),
			Issue:   clock, Start: clock + wait, Transfer: 4, Cell: 20,
			Done: clock + wait + 24})
		done := clock + wait + 24
		if i%6 == 3 {
			prev := tel.EnterECC()
			tel.ObserveOp(ssd.OpObservation{Kind: ssd.OpRead, Chip: chip,
				Channel: geo.ChannelOfChip(chip),
				Issue:   done, Start: done, Transfer: 4, Cell: 11, Done: done + 15})
			tel.ExitOrigin(prev)
			done += 15
		}
		tel.EndRequest(done + ssd.Time(i%3))
		if i%8 == 7 {
			tel.EmitSpan(OriginScrub, "patrol visit", done, done+40,
				map[string]any{"block": int64(100 + i), "sampled": 4})
			prev := tel.EnterOrigin(OriginScrub)
			tel.ObserveOp(ssd.OpObservation{Kind: ssd.OpRead, Chip: 1,
				Channel: geo.ChannelOfChip(1),
				Issue:   done, Start: done + 3, Transfer: 4, Cell: 20, Done: done + 27})
			tel.ExitOrigin(prev)
		}
	}
	return tel
}

// exportHashes returns the SHA-256 of the trace, Prometheus and CSV
// exports of tel.
func exportHashes(t *testing.T, tel *Telemetry) (traceSum, promSum, csvSum string) {
	t.Helper()
	sum := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(h[:])
	}
	traceSum = sum(func(b *bytes.Buffer) error { return tel.WriteTrace(b) })
	promSum = sum(func(b *bytes.Buffer) error { return tel.WritePrometheus(b, tel.Now()) })
	csvSum = sum(func(b *bytes.Buffer) error { return tel.WriteCSV(b) })
	return
}

// TestExportIdentityPinned pins the byte-exact exports of pinnedRun, with
// the ring large enough to keep every event and with it wrapped at 16
// slots. The hashes were recorded with the map-per-event tracer; the typed
// ring must reproduce that output byte for byte.
func TestExportIdentityPinned(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		traceCap             int
		trace, prom, csvHash string
	}{
		{"full", 0,
			"35b29791745b90a887e4b388bcc45d3495dfa87eb59a897c5c9ea723f31406de",
			"852677570ea03ca7ffd97e37abafe304931707a12da5de626ffb51d0d20ddfac",
			"aa4b749852674644703b1046ab9536f1605c8444fa36c9eeb85d1f99d07ecfc8"},
		{"wrapped", 16,
			"f784137362ee1496be92f57f048c5e381085f331eb9a471492d71fca91893b59",
			"852677570ea03ca7ffd97e37abafe304931707a12da5de626ffb51d0d20ddfac",
			"aa4b749852674644703b1046ab9536f1605c8444fa36c9eeb85d1f99d07ecfc8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := pinnedRun(tc.traceCap)
			if tc.traceCap > 0 && tel.Tracer().Dropped() == 0 {
				t.Fatal("wrapped case dropped nothing")
			}
			gotTrace, gotProm, gotCSV := exportHashes(t, tel)
			if gotTrace != tc.trace {
				t.Errorf("trace sha256 = %s, want %s", gotTrace, tc.trace)
			}
			if gotProm != tc.prom {
				t.Errorf("prometheus sha256 = %s, want %s", gotProm, tc.prom)
			}
			if gotCSV != tc.csvHash {
				t.Errorf("csv sha256 = %s, want %s", gotCSV, tc.csvHash)
			}
		})
	}
}
