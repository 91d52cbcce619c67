package core

import (
	"math/rand"
	"slices"
	"testing"

	"zombiessd/internal/ssd"
)

// Op-stream sizes: few values, so entries hold several pages, and a small
// PPN universe, so pages return to the pool after they left it.
const (
	opValues = 24
	opPPNs   = 96
)

// poolPair is a production pool and the reference model it must match.
type poolPair struct {
	name      string
	got, want Pool
}

// entryCount and queueLengths read the observables outside the Pool
// interface; queueLengths is nil for the queue-less infinite pools and a
// single queue for the reference LRU.
func entryCount(p Pool) int {
	return p.(interface{ EntryCount() int }).EntryCount()
}

func queueLengths(p Pool) []int {
	switch p := p.(type) {
	case *MQPool:
		return p.QueueLengths()
	case *refMQPool:
		return p.QueueLengths()
	case *refLRUPool:
		return []int{p.list.n}
	}
	return nil
}

// runPoolOps replays one op stream on every pair, which share ledger, and
// fails on the first divergence. Every op takes three bytes. After each op
// it compares the op's return values, GarbagePopularity of the page the op
// touched and of every page in the universe, Len, EntryCount, QueueLengths
// and Stats, and re-checks the MQ structure. As on
// the device, an inserted PPN is never pooled at that moment, but a page
// may return after it was revived, dropped or evicted.
func runPoolOps(t *testing.T, ledger *Ledger, pairs []poolPair, data []byte) {
	t.Helper()
	// The PPNs whose GarbagePopularity is compared after every op: the
	// universe, plus the op's own page when it is a fresh one.
	check := make([]ssd.PPN, opPPNs, opPPNs+1)
	for i := range check {
		check[i] = ssd.PPN(i)
	}
	fresh := ssd.PPN(opPPNs)
	var now Tick
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i]%6, data[i+1], data[i+2]
		v := h(uint64(a % opValues))
		now += Tick(a % 4)
		var touched ssd.PPN
		switch op {
		case 0, 1: // a page dies
			if op == 0 {
				ledger.Bump(v)
			}
			touched = ssd.PPN(b) % opPPNs
			if pooledIn(pairs, touched) {
				touched = fresh
				fresh++
			}
			for _, pp := range pairs {
				pp.got.Insert(v, touched, now)
				pp.want.Insert(v, touched, now)
			}
		case 2: // a write revives
			touched = ssd.InvalidPPN
			for _, pp := range pairs {
				ppn, ok := pp.got.Lookup(v, now)
				rppn, rok := pp.want.Lookup(v, now)
				if ppn != rppn || ok != rok {
					t.Fatalf("%s op %d: Lookup = (%d,%v), reference (%d,%v)", pp.name, i, ppn, ok, rppn, rok)
				}
				if ok {
					touched = ppn
				}
			}
		case 3: // GC erases a page, pooled or not
			touched = ssd.PPN(b) % opPPNs
			if b >= 0xf0 && fresh > opPPNs {
				touched = fresh - 1 - ssd.PPN(a)%(fresh-opPPNs)
			}
			for _, pp := range pairs {
				pp.got.Drop(touched)
				pp.want.Drop(touched)
			}
		case 4: // popularity moves without pool activity
			ledger.Bump(v)
			continue
		case 5: // time passes: queue heads expire
			now += Tick(b)
			continue
		}
		ppns := check
		if touched >= opPPNs && touched != ssd.InvalidPPN {
			ppns = append(check, touched)
		}
		for _, pp := range pairs {
			comparePools(t, i, pp, ppns)
		}
	}
}

// pooledIn reports whether any reference pool holds ppn.
func pooledIn(pairs []poolPair, ppn ssd.PPN) bool {
	for _, pp := range pairs {
		if _, ok := pp.want.GarbagePopularity(ppn); ok {
			return true
		}
	}
	return false
}

func comparePools(t *testing.T, op int, pp poolPair, ppns []ssd.PPN) {
	t.Helper()
	for _, ppn := range ppns {
		pop, ok := pp.got.GarbagePopularity(ppn)
		rpop, rok := pp.want.GarbagePopularity(ppn)
		if pop != rpop || ok != rok {
			t.Fatalf("%s op %d: GarbagePopularity(%d) = (%d,%v), reference (%d,%v)",
				pp.name, op, ppn, pop, ok, rpop, rok)
		}
	}
	if pp.got.Len() != pp.want.Len() || pp.got.Stats() != pp.want.Stats() {
		t.Fatalf("%s op %d: Len %d Stats %+v, reference Len %d Stats %+v",
			pp.name, op, pp.got.Len(), pp.got.Stats(), pp.want.Len(), pp.want.Stats())
	}
	if n, rn := entryCount(pp.got), entryCount(pp.want); n != rn {
		t.Fatalf("%s op %d: EntryCount %d, reference %d", pp.name, op, n, rn)
	}
	if q, rq := queueLengths(pp.got), queueLengths(pp.want); !slices.Equal(q, rq) {
		t.Fatalf("%s op %d: QueueLengths %v, reference %v", pp.name, op, q, rq)
	}
	if mq, ok := pp.got.(*MQPool); ok {
		checkMQStructure(t, mq)
	}
}

// mqPairs builds the pools an op stream exercises for one MQ shape: MQ
// against the reference MQ, the one-queue LRU against the reference LRU,
// and the infinite pool against its reference.
func mqPairs(cfg MQConfig, ledger *Ledger) []poolPair {
	return []poolPair{
		{"mq", NewMQPool(cfg, ledger), newRefMQPool(cfg, ledger)},
		{"lru", NewLRUPool(cfg.Capacity, ledger), newRefLRUPool(cfg.Capacity, ledger)},
		{"infinite", NewInfinitePool(ledger), newRefInfinitePool(ledger)},
	}
}

// TestPoolsMatchReference replays seeded random op streams on the slab
// pools and on the pre-slab reference models over several pool shapes.
func TestPoolsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  MQConfig
		seed int64
	}{
		{"tiny-capacity", MQConfig{Queues: 4, Capacity: 4, DefaultLifetime: 16}, 1},
		{"single-queue", MQConfig{Queues: 1, Capacity: 16, DefaultLifetime: 64}, 2},
		{"paper-shape", MQConfig{Queues: 8, Capacity: 20, DefaultLifetime: 512}, 3},
		{"churny-lifetime", MQConfig{Queues: 8, Capacity: 12, DefaultLifetime: 2}, 4},
		{"three-queue", MQConfig{Queues: 3, Capacity: 20, DefaultLifetime: 8}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := make([]byte, 3*3000)
			rand.New(rand.NewSource(tc.seed)).Read(data)
			ledger := NewLedger()
			pairs := mqPairs(tc.cfg, ledger)
			runPoolOps(t, ledger, pairs, data)
			st := pairs[0].got.Stats()
			if st.Hits == 0 || st.Drops == 0 || st.Evictions == 0 {
				t.Fatalf("stream exercised too little: %+v", st)
			}
		})
	}
}

// FuzzMQOps compares the slab pools against the reference models on
// arbitrary op streams. The first three bytes pick the queue count,
// capacity and default lifetime.
func FuzzMQOps(f *testing.F) {
	f.Add([]byte{7, 5, 10, 0, 1, 2, 0, 1, 3, 2, 1, 0, 3, 4, 2, 5, 0, 200, 2, 1, 0})
	f.Add([]byte{0, 2, 1, 0, 3, 9, 0, 4, 9, 2, 3, 0, 3, 0, 9, 1, 5, 5, 2, 5, 0})
	seed := make([]byte, 3+3*200)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := MQConfig{
			Queues:          1 + int(data[0]%8),
			Capacity:        1 + int(data[1]%32),
			DefaultLifetime: 1 + Tick(data[2]%64),
		}
		ledger := NewLedger()
		runPoolOps(t, ledger, mqPairs(cfg, ledger), data[3:])
	})
}

// TestMQOpsAllocFree pins the slab pool's allocation behaviour: once the
// pool is warmed to capacity, Insert (with its eviction), Lookup and Drop
// allocate nothing.
func TestMQOpsAllocFree(t *testing.T) {
	const capacity, values, universe = 64, 256, 4096
	ledger := NewLedger()
	p := NewMQPool(MQConfig{Queues: 8, Capacity: capacity, DefaultLifetime: 32}, ledger)
	for v := uint64(0); v < values; v++ {
		for k := uint64(0); k <= v%5; k++ {
			ledger.Bump(h(v))
		}
	}
	k := 0
	step := func() {
		ppn := ssd.PPN(k % universe)
		p.Drop(ppn)
		p.Insert(h(uint64(k%values)), ppn, Tick(k))
		p.Lookup(h(uint64(k*7%values)), Tick(k))
		p.Drop(ssd.PPN(k * 13 % universe))
		k++
	}
	for i := 0; i < 4*universe; i++ {
		step()
	}
	if p.Stats().Evictions == 0 || p.EntryCount() < capacity/2 {
		t.Fatalf("warm-up did not fill the pool: %d entries, %+v", p.EntryCount(), p.Stats())
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("warmed pool allocates %.2f objects per Insert+Lookup+Drop", allocs)
	}
}
