package ftl

import (
	"math"
	"math/rand"
	"testing"

	"zombiessd/internal/fault"
	"zombiessd/internal/ssd"
)

// victimStore builds a tiny store and hand-sets per-block accounting on
// plane 0 so victim selection can be exercised directly: each entry of
// blocks describes one candidate (valid, invalid, progFails); described
// blocks are taken off the conceptual free pool. Block indexes are
// plane-relative, starting at 1 (index 0 is the active frontier).
func victimStore(t *testing.T, cfg StoreConfig, blocks map[int][3]int32) *Store {
	t.Helper()
	s, _ := newTinyStore(t, cfg)
	for idx, counts := range blocks {
		b := s.geo.BlockAt(0, idx)
		info := &s.blocks[b]
		info.free = false
		info.valid = counts[0]
		info.invalid = counts[1]
		info.progFails = counts[2]
	}
	return s
}

// TestVictimScoreTable pins the fault-aware victim policy: zero weight
// ignores fault history entirely, a positive weight makes a block with
// program failures lose to an otherwise-equal clean block, and
// DrainSuspects pulls doomed blocks ahead of any greedy candidate.
func TestVictimScoreTable(t *testing.T) {
	cases := []struct {
		name string
		cfg  StoreConfig
		// blocks maps plane-relative block index → {valid, invalid, progFails}.
		blocks map[int][3]int32
		want   int // plane-relative index of the expected victim
	}{
		{
			name:   "zero weight scans greedily despite failures",
			cfg:    DefaultStoreConfig(),
			blocks: map[int][3]int32{1: {0, 8, 3}, 2: {0, 8, 0}},
			want:   1, // equal greed: first scanned wins, fault history invisible
		},
		{
			name: "positive weight prefers the clean equal block",
			cfg: StoreConfig{GCFreeBlockThreshold: 2, FaultPenaltyWeight: 1,
				Faults: fault.Config{ProgramFailProb: 1e-9}},
			blocks: map[int][3]int32{1: {0, 8, 3}, 2: {0, 8, 0}},
			want:   2,
		},
		{
			name: "penalty is proportional, not absolute",
			cfg: StoreConfig{GCFreeBlockThreshold: 2, FaultPenaltyWeight: 0.4,
				Faults: fault.Config{ProgramFailProb: 1e-9}},
			blocks: map[int][3]int32{1: {0, 5, 0}, 2: {0, 6, 2}},
			want:   2, // 6 − 0.4×2 = 5.2 still beats the clean 5
		},
		{
			name: "heavy weight flips the proportional case",
			cfg: StoreConfig{GCFreeBlockThreshold: 2, FaultPenaltyWeight: 1,
				Faults: fault.Config{ProgramFailProb: 1e-9}},
			blocks: map[int][3]int32{1: {0, 5, 0}, 2: {0, 6, 2}},
			want:   1, // 6 − 1×2 = 4 loses to the clean 5
		},
		{
			name: "drain-suspects outranks any greed",
			cfg: StoreConfig{GCFreeBlockThreshold: 2, FaultPenaltyWeight: 1, DrainSuspects: true,
				Faults: fault.Config{ProgramFailProb: 1e-9, SuspectThreshold: 2}},
			blocks: map[int][3]int32{1: {0, 10, 0}, 2: {1, 1, 2}},
			want:   2, // doomed block drains first: 1 + 16 > 10
		},
		{
			name: "drain-suspects without a threshold falls back to the penalty",
			cfg: StoreConfig{GCFreeBlockThreshold: 2, FaultPenaltyWeight: 1, DrainSuspects: true,
				Faults: fault.Config{ProgramFailProb: 1e-9}},
			blocks: map[int][3]int32{1: {0, 10, 0}, 2: {1, 1, 2}},
			want:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := victimStore(t, tc.cfg, tc.blocks)
			want := s.geo.BlockAt(0, tc.want)
			if got := s.victim(0); got != want {
				t.Errorf("victim(0) = block %d, want %d", got, want)
			}
		})
	}
}

// TestVictimScoreZeroWeightExact proves the zero-weight score is exactly
// the greedy invalid count — no float perturbation — even on a block with
// accumulated program failures, so fault-unaware runs stay bit-identical.
func TestVictimScoreZeroWeightExact(t *testing.T) {
	s := victimStore(t, DefaultStoreConfig(), map[int][3]int32{1: {2, 7, 5}})
	b := s.geo.BlockAt(0, 1)
	if got := s.victimScore(b); got != 7.0 {
		t.Errorf("zero-weight victimScore = %v, want exactly 7", got)
	}
}

// TestVictimSkipsBadBlocks guards the candidate gates around the new
// scoring: retired blocks never become victims no matter how much garbage
// they hold.
func TestVictimSkipsBadBlocks(t *testing.T) {
	cfg := StoreConfig{GCFreeBlockThreshold: 2, FaultPenaltyWeight: 1,
		Faults: fault.Config{ProgramFailProb: 1e-9}}
	s := victimStore(t, cfg, map[int][3]int32{1: {0, 16, 0}, 2: {0, 4, 0}})
	bad := s.geo.BlockAt(0, 1)
	s.blocks[bad].bad = true
	if got, want := s.victim(0), s.geo.BlockAt(0, 2); got != want {
		t.Errorf("victim(0) = block %d, want %d (bad block must be skipped)", got, want)
	}
}

// TestUsablePagesNow pins the capacity accounting the lifetime harness
// samples: retiring a block shrinks UsablePagesNow by one block's pages
// while UsablePages (the static bound) is unchanged.
func TestUsablePagesNow(t *testing.T) {
	s, _ := newTinyStore(t, DefaultStoreConfig())
	if s.UsablePagesNow() != s.UsablePages() {
		t.Fatalf("fresh drive: UsablePagesNow %d != UsablePages %d", s.UsablePagesNow(), s.UsablePages())
	}
	static := s.UsablePages()
	s.faults.RetiredBlocks = 3
	want := static - 3*int64(s.geo.PagesPerBlock)
	if got := s.UsablePagesNow(); got != want {
		t.Errorf("after 3 retirements: UsablePagesNow = %d, want %d", got, want)
	}
	if s.UsablePages() != static {
		t.Errorf("UsablePages moved from %d to %d on retirement", static, s.UsablePages())
	}
	s.faults.RetiredBlocks = int64(s.geo.TotalBlocks())
	if got := s.UsablePagesNow(); got != 0 {
		t.Errorf("fully retired drive: UsablePagesNow = %d, want 0 (clamped)", got)
	}
}

// mapScorer is a GarbageScorer over a fixed popularity table.
type mapScorer map[ssd.PPN]uint8

func (m mapScorer) GarbagePopularity(p ssd.PPN) (uint8, bool) {
	pop, ok := m[p]
	return pop, ok
}

// fullScanVictim is victim without pruning: it scores every eligible
// block, the reference the pruned scan must agree with.
func fullScanVictim(s *Store, plane int) ssd.BlockID {
	best := ssd.InvalidBlock
	bestScore := math.Inf(-1)
	capacity := s.relocationCapacity(plane)
	for i := 0; i < s.geo.BlocksPerPlane; i++ {
		b := s.geo.BlockAt(plane, i)
		info := &s.blocks[b]
		if info.free || info.active || info.bad || info.dead || info.draining ||
			info.trans || info.invalid == 0 || info.valid > capacity {
			continue
		}
		if score := s.victimScore(b); score > bestScore {
			bestScore = score
			best = b
		}
	}
	return best
}

// TestVictimPruningMatchesFullScan builds seeded random planes — block
// counts, pooled garbage and its popularity, program failures, suspect
// blocks — under popularity weighting, the fault penalty and
// DrainSuspects, and checks that the pruned victim is the full scan's,
// block for block. Small value ranges make equal scores common, so the
// lowest-index tie-break is exercised too.
func TestVictimPruningMatchesFullScan(t *testing.T) {
	geo := ssd.Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 48, PagesPerBlock: 16, PageSize: 4096, OverProvision: 0.15,
	}
	weights := []float64{0.01, 0.25, 1, 3}
	ties := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := StoreConfig{
			GCFreeBlockThreshold: 2,
			PopularityWeight:     weights[rng.Intn(len(weights))],
			FaultPenaltyWeight:   weights[rng.Intn(len(weights))],
			DrainSuspects:        true,
			Faults:               fault.Config{ProgramFailProb: 1e-9, SuspectThreshold: 2},
		}
		s, err := NewStore(cfg, ssd.NewBus(geo, ssd.PaperLatency()))
		if err != nil {
			t.Fatal(err)
		}
		scorer := mapScorer{}
		s.Scorer = scorer
		for plane := 0; plane < geo.TotalPlanes(); plane++ {
			for i := 1; i < geo.BlocksPerPlane; i++ {
				b := geo.BlockAt(plane, i)
				info := &s.blocks[b]
				info.free = rng.Intn(8) == 0
				info.bad = rng.Intn(20) == 0
				info.invalid = int32(rng.Intn(5) * 4)
				info.valid = int32(rng.Intn(geo.PagesPerBlock - int(info.invalid) + 1))
				info.progFails = int32(max(0, rng.Intn(6)-3))
				first := geo.FirstPage(b)
				for p := 0; p < int(info.invalid); p++ {
					ppn := first + ssd.PPN(p)
					s.setState(ppn, PageInvalid)
					if rng.Intn(3) > 0 {
						scorer[ppn] = uint8(rng.Intn(3))
					}
				}
			}
			got, want := s.victim(plane), fullScanVictim(s, plane)
			if got != want {
				t.Fatalf("seed %d plane %d: pruned victim %d, full scan %d (cfg %+v)", seed, plane, got, want, cfg)
			}
			if want == ssd.InvalidBlock {
				continue
			}
			for i := 0; i < geo.BlocksPerPlane; i++ {
				b := geo.BlockAt(plane, i)
				if b != want && s.blocks[b].invalid > 0 && !s.blocks[b].free && !s.blocks[b].bad &&
					s.victimScore(b) == s.victimScore(want) {
					ties++
					break
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no plane produced an equal-score candidate; the tie-break went unexercised")
	}
}
