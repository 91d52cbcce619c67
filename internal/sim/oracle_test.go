package sim

import (
	"reflect"
	"testing"

	"zombiessd/internal/ftl"
	"zombiessd/internal/trace"
)

// TestChecked pins the checked replay's contract on every device flavour:
// its fill and its replay leave the device bit-identical to sim.Run's, a
// record outside the logical space or with an unknown op is rejected
// before it reaches the device, and only durably acknowledged pages — on
// a write-back device, the flushed ones — come under verification.
func TestChecked(t *testing.T) {
	buffered := testConfig(KindDVP, testFootprint)
	buffered.WriteBufferPages = 64
	cases := []struct {
		name string
		cfg  Config
	}{
		{"baseline", testConfig(KindBaseline, testFootprint)},
		{"dvp", testConfig(KindDVP, testFootprint)},
		{"dvp+dedup", testConfig(KindDVPDedup, testFootprint)},
		{"lx", testConfig(KindLX, testFootprint)},
		{"buffered", buffered},
	}
	rejected := []trace.Record{
		{Time: 10, Op: trace.OpWrite, LBA: testFootprint, Hash: trace.HashOfValue(1)},
		{Time: 10, Op: trace.OpRead, LBA: testFootprint + 7},
		{Time: 10, Op: trace.Op(99), LBA: 5, Hash: trace.HashOfValue(1)},
	}
	recs := rainTrace(2000, testFootprint) // reads mixed in
	opts := RunOptions{LogicalPages: testFootprint, PreconditionPages: testFootprint}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			devices := func() (Device, Device, *Checked) {
				ref, err := NewDevice(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				dev, err := NewDevice(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewChecked(dev, testFootprint)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Precondition(); err != nil {
					t.Fatal(err)
				}
				return ref, dev, c
			}

			// The fill alone; the replay below runs on fresh devices.
			ref, dev, c := devices()
			if _, err := Run(ref, nil, opts); err != nil {
				t.Fatal(err)
			}
			if got, want := dev.Metrics(), ref.Metrics(); !reflect.DeepEqual(got, want) {
				t.Errorf("metrics after the fill differ from sim.Run's:\n got %+v\nwant %+v", got, want)
			}
			hr, refHR := dev.(HashReader), ref.(HashReader)
			for lpn := ftl.LPN(0); lpn < testFootprint; lpn++ {
				got, gok := hr.ReadHash(lpn)
				want, wok := refHR.ReadHash(lpn)
				if got != want || gok != wok {
					t.Fatalf("LPN %d after the fill reads %x (%v), sim.Run's reads %x (%v)", lpn, got[:4], gok, want[:4], wok)
				}
			}
			if got, want := c.Pages(), testFootprint-tc.cfg.WriteBufferPages; got != want {
				t.Errorf("%d pages under verification after the fill, want %d", got, want)
			}
			before := dev.Metrics()
			for _, rec := range rejected {
				if _, err := c.Do(rec); err == nil {
					t.Errorf("record %+v accepted, want rejected", rec)
				}
			}
			if got := dev.Metrics(); !reflect.DeepEqual(got, before) {
				t.Errorf("rejected records reached the device:\n got %+v\nwant %+v", got, before)
			}

			// The replay submits at sim.Run's instants: same device state
			// and the same makespan after the whole trace.
			ref, dev, c = devices()
			res, err := Run(ref, recs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range recs {
				if _, err := c.Do(rec); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
			if got, want := dev.Metrics(), ref.Metrics(); !reflect.DeepEqual(got, want) {
				t.Errorf("metrics after the replay differ from sim.Run's:\n got %+v\nwant %+v", got, want)
			}
			if got := c.End - c.Shift; got != res.Makespan {
				t.Errorf("replay makespan %d, sim.Run's %d", got, res.Makespan)
			}
			before = dev.Metrics()
			if v := c.Verify(); len(v) > 0 {
				t.Errorf("%d oracle violations after the replay, first: %v", len(v), v[0])
			}
			// The oracle's probes are not host reads: no counter moves,
			// buffer read hits included.
			if got := dev.Metrics(); !reflect.DeepEqual(got, before) {
				t.Errorf("Verify moved the device's metrics:\n got %+v\nwant %+v", got, before)
			}
		})
	}
}
