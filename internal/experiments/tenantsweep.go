package experiments

import (
	"fmt"

	"zombiessd/internal/sim"
	"zombiessd/internal/workload"
)

// ------------------------------------------------------- multi-tenant sweep --

// The tenantsweep asks the multi-tenant question the paper leaves open:
// does one tenant's content redundancy subsidize or starve another
// tenant's DVP hit rate and tail latency? It runs 1→8 tenant streams ×
// arbiter policy × all five architectures through the multi-queue host
// engine, reporting per-tenant p99/p99.9, DVP hit rate, write
// amplification and admission rejects, plus an antagonist arm — a
// well-behaved mail victim sharing the drive with a 4×-rate,
// private-content trans antagonist — that measures tail-latency isolation
// and the cross-tenant revival subsidy directly.

// tenantSweepDivisor shrinks each cell's trace relative to
// Options.Requests (the sweep runs dozens of cells); the floor keeps tiny
// smoke runs meaningful.
const tenantSweepDivisor = 8

const tenantSweepFloor = 12_000

// DefaultTenantQueueDepth is the per-tenant queue-depth bound the sweep
// applies when Options.QueueDepth is 0. The sweep also uses it as the
// shared device-slot count (sim.EngineOptions.DeviceSlots): unlimited
// capacity would let every request dispatch at its arrival instant,
// reducing every arbiter to FIFO; a shared bound makes tenants contend
// for dispatch slots, which is where QoS policy shows up.
const DefaultTenantQueueDepth = 8

// tenantSweepCounts is the built-in tenant-count ladder.
var tenantSweepCounts = []int{1, 2, 4, 8}

// TenantCell is one (architecture, policy, tenant set) cell of the sweep.
type TenantCell struct {
	Arch    string
	Policy  sim.ArbiterKind
	Label   string // tenant count ("1".."8") or "antag"
	Tenants []sim.TenantResult
}

// TenantsweepResult is the rendered outcome of RunTenantsweep.
type TenantsweepResult struct {
	Requests   int64 // per cell, split across its tenants
	Seed       int64
	QueueDepth int
	Cells      []TenantCell
}

// tenantArchKinds lists the five swept architectures by name; device
// configs come from Options.deviceConfig per cell (footprints differ by
// tenant set).
var tenantArchKinds = []struct {
	name string
	kind sim.Kind
}{
	{"baseline", sim.KindBaseline},
	{"dvp", sim.KindDVP},
	{"dedup", sim.KindDedup},
	{"dvp+dedup", sim.KindDVPDedup},
	{"lx-ssd", sim.KindLX},
}

// tenantSetFor builds the tenant configs of one ladder cell: n tenants
// cycling the six Table II profiles, equal weights, shared content space.
func tenantSetFor(n int) []sim.TenantConfig {
	names := workload.Names()
	out := make([]sim.TenantConfig, n)
	for i := range out {
		p, _ := workload.ProfileByName(names[i%len(names)])
		out[i] = sim.TenantConfig{Name: fmt.Sprintf("t%d-%s", i, p.Name), Profile: p, Weight: 1}
	}
	return out
}

// antagonistSet builds the isolation arm: a mail victim (weight 4) sharing
// the drive with a trans antagonist writing 4× as fast into a private
// content space, so the victim's DVP can never feed off the antagonist's
// garbage and every revival across the pair is a measured subsidy.
func antagonistSet() []sim.TenantConfig {
	victim, _ := workload.ProfileByName("mail")
	antag, _ := workload.ProfileByName("trans")
	antag.MeanInterarrivalUS /= 4
	antag.ValueBase = 1 << 40
	return []sim.TenantConfig{
		{Name: "victim-mail", Profile: victim, Weight: 4},
		{Name: "antag-trans", Profile: antag, Weight: 1},
	}
}

// RunTenantsweep crosses tenant sets × arbiter policies × the five
// architectures through the multi-queue host engine. Cells are
// independent simulations spread across Options.Jobs workers; results are
// keyed by cell index, so the output is byte-identical for every worker
// count.
func RunTenantsweep(o Options) (*TenantsweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	requests := o.scaled(tenantSweepDivisor, tenantSweepFloor).Requests
	qd := o.QueueDepth
	if qd == 0 {
		qd = DefaultTenantQueueDepth
	}
	policiesSpec := o.QoSPolicies
	if policiesSpec == "" {
		policiesSpec = "fifo,wrr"
	}
	policies, err := sim.ParseArbiterList(policiesSpec)
	if err != nil {
		return nil, err
	}

	// Tenant sets: the explicit -tenants spec, or the built-in 1→8 ladder
	// plus the antagonist pair.
	type tenantSet struct {
		label string
		cfgs  []sim.TenantConfig
	}
	var sets []tenantSet
	if o.TenantSpec != "" {
		cfgs, err := sim.ParseTenants(o.TenantSpec)
		if err != nil {
			return nil, err
		}
		sets = append(sets, tenantSet{label: fmt.Sprint(len(cfgs)), cfgs: cfgs})
	} else {
		for _, n := range tenantSweepCounts {
			sets = append(sets, tenantSet{label: fmt.Sprint(n), cfgs: tenantSetFor(n)})
		}
		sets = append(sets, tenantSet{label: "antag", cfgs: antagonistSet()})
	}

	type cellSpec struct {
		arch   string
		kind   sim.Kind
		policy sim.ArbiterKind
		set    tenantSet
	}
	var cells []cellSpec
	for _, a := range tenantArchKinds {
		for _, pol := range policies {
			for _, s := range sets {
				cells = append(cells, cellSpec{arch: a.name, kind: a.kind, policy: pol, set: s})
			}
		}
	}
	results, err := runCells(cells, o.Jobs, func(c cellSpec) (TenantCell, error) {
		tenants, err := runTenantCell(c.set.cfgs, requests, o.Seed,
			func(fp int64) sim.Config { return o.deviceConfig(c.kind, fp, sim.PoolMQ, 200_000) },
			c.policy, qd)
		if err != nil {
			return TenantCell{}, fmt.Errorf("experiments: tenantsweep %s/%v/%s: %w", c.arch, c.policy, c.set.label, err)
		}
		return TenantCell{Arch: c.arch, Policy: c.policy, Label: c.set.label, Tenants: tenants}, nil
	})
	if err != nil {
		return nil, err
	}
	return &TenantsweepResult{Requests: requests, Seed: o.Seed, QueueDepth: qd, Cells: results}, nil
}

// Table renders one row per (cell, tenant): the per-tenant tail latencies,
// DVP hit rate, write amplification and admission rejects the isolation
// question is asked of.
func (r *TenantsweepResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Tenantsweep: per-tenant isolation (%d requests/cell, qd=%d, seed %d)",
			r.Requests, r.QueueDepth, r.Seed),
		Header: []string{"arch", "qos", "cell", "tenant", "n", "rej",
			"mean", "p99", "p99.9", "dvp-hit", "WA", "rev-other", "rev-by-other"},
	}
	for _, c := range r.Cells {
		for _, tr := range c.Tenants {
			t.Rows = append(t.Rows, []string{
				c.Arch, c.Policy.String(), c.Label, tr.Name,
				i64(tr.Requests), i64(tr.Rejected),
				usec(tr.All.Mean), fmt.Sprintf("%dµs", tr.All.P99), fmt.Sprintf("%dµs", tr.P999),
				pct(tr.DVPHitPct()), fmt.Sprintf("%.2f", tr.Metrics.WriteAmplification()),
				i64(tr.Store.RevivedOther), i64(tr.Store.RevivedByOther),
			})
		}
	}
	t.Notes = append(t.Notes,
		"cell: tenant count (shared content space) or 'antag' (mail victim vs 4×-rate private-content trans antagonist)",
		"rev-other: tenant's writes revived from another tenant's garbage; rev-by-other: tenant's garbage revived by others",
		"rej: arrivals shed by per-tenant queue-depth admission control")
	return t
}
