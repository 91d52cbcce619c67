package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestNoTenantBitIdentity is the tentpole determinism pin of the
// multi-queue host engine, in two halves. First: the single-submitter
// matrix — now routed through the engine's degenerate case (one tenant,
// FIFO, unlimited depth) — must still hit the pre-engine golden counters
// exactly. Second: a 2-tenant tenantsweep is a pure function of
// (seeds, config) — byte-identical across repeated invocations and
// across every -j worker count.
func TestNoTenantBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix cells in -short mode")
	}
	checkMatrixGoldens(t)

	run := func(jobs int) *TenantsweepResult {
		o := smallOpts()
		o.Jobs = jobs
		o.TenantSpec = "mail,trans:ia=0.5"
		o.QoSPolicies = "wrr"
		r, err := RunTenantsweep(o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(1)
	for _, jobs := range []int{2, 8, 1} {
		if again := run(jobs); !reflect.DeepEqual(base, again) {
			t.Fatalf("tenantsweep diverged at jobs=%d:\n base %+v\n got %+v", jobs, again, base)
		}
	}
}

// TestTenantsweepSmoke checks the sweep's report shape on an explicit
// 2-tenant set: every architecture × policy cell carries one row per
// tenant with the isolation columns populated, and the DVP architectures
// actually revive.
func TestTenantsweepSmoke(t *testing.T) {
	o := smallOpts()
	o.TenantSpec = "mail,trans:ia=0.5"
	o.QoSPolicies = "fifo"
	r, err := RunTenantsweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(tenantArchKinds) {
		t.Fatalf("got %d cells, want %d (one per architecture)", len(r.Cells), len(tenantArchKinds))
	}
	var dvpRevived bool
	for _, c := range r.Cells {
		if len(c.Tenants) != 2 {
			t.Fatalf("cell %s/%s has %d tenants, want 2", c.Arch, c.Policy, len(c.Tenants))
		}
		for _, tr := range c.Tenants {
			if tr.Requests == 0 {
				t.Errorf("cell %s tenant %s processed nothing", c.Arch, tr.Name)
			}
			if tr.All.P99 <= 0 {
				t.Errorf("cell %s tenant %s has no p99", c.Arch, tr.Name)
			}
		}
		if c.Arch == "dvp" && c.Tenants[0].DVPHitPct() > 0 {
			dvpRevived = true
		}
	}
	if !dvpRevived {
		t.Error("dvp architecture never revived for the mail tenant")
	}
	tab := r.Table()
	if len(tab.Rows) != len(r.Cells)*2 {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(r.Cells)*2)
	}
	header := strings.Join(tab.Header, " ")
	for _, col := range []string{"p99", "p99.9", "dvp-hit", "rej", "rev-other"} {
		if !strings.Contains(header, col) {
			t.Errorf("table header lacks %q: %v", col, tab.Header)
		}
	}
	if !strings.Contains(r.Table().String(), "qd=") {
		t.Error("rendered table lacks the queue-depth note in its title")
	}
}

// TestTenantsweepOptionPlumbing checks the -tenants/-qos/-qd flag
// surface rejects malformed values at Options.Validate, before any
// simulation runs.
func TestTenantsweepOptionPlumbing(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.TenantSpec = "mail:weight=0" },
		func(o *Options) { o.TenantSpec = "mail:weight=nan" },
		func(o *Options) { o.TenantSpec = "nosuch" },
		func(o *Options) { o.QoSPolicies = "bogus" },
		func(o *Options) { o.QoSPolicies = "fifo,fifo" },
		func(o *Options) { o.QueueDepth = -1 },
	}
	for i, mut := range bad {
		o := smallOpts()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted", i)
		}
	}
	o := smallOpts()
	o.TenantSpec = "2"
	o.QoSPolicies = "wrr,tbucket"
	o.QueueDepth = 4
	if err := o.Validate(); err != nil {
		t.Errorf("good tenant options rejected: %v", err)
	}
}
