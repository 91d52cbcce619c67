package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// indices returns the cells 0, …, n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestParallelCellsSerialOrderAndSkip pins jobs=1: cells run in index
// order, and after the first failure the remaining cells are skipped.
func TestParallelCellsSerialOrderAndSkip(t *testing.T) {
	boom := errors.New("boom")
	var order []int
	out, err := runCells(indices(10), 1, func(i int) (int, error) {
		order = append(order, i)
		if i == 3 {
			return 0, fmt.Errorf("cell %d: %w", i, boom)
		}
		return i, nil
	})
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("ran cells %v, want %v", order, want)
	}
	if !errors.Is(err, boom) || err.Error() != "cell 3: boom" {
		t.Errorf("runCells error = %v, want cell 3's boom", err)
	}
	if out != nil {
		t.Errorf("failed run returned results %v", out)
	}
}

// TestParallelCellsLowestIndexError makes a higher-index cell fail first
// while a lower-index cell is still running: the reported error must be
// the lower index's, whatever the completion order.
func TestParallelCellsLowestIndexError(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		gate := make(chan struct{})
		_, err := runCells(indices(8), 2, func(i int) (struct{}, error) {
			switch i {
			case 1:
				// Cell 5 opens the gate. It always starts, since no
				// cell can fail before it does.
				<-gate
				return struct{}{}, fmt.Errorf("cell %d", i)
			case 5:
				close(gate)
				return struct{}{}, fmt.Errorf("cell %d", i)
			}
			return struct{}{}, nil
		})
		if err == nil || err.Error() != "cell 1" {
			t.Fatalf("rep %d: runCells error = %v, want cell 1", rep, err)
		}
	}
}

// TestParallelCellsRunsEveryCell covers the success path, with more
// workers than cells and with none at all: every cell runs once and its
// result lands in its own slot.
func TestParallelCellsRunsEveryCell(t *testing.T) {
	for _, jobs := range []int{0, 3, 64} {
		var ran [17]atomic.Bool
		out, err := runCells(indices(len(ran)), jobs, func(i int) (int, error) {
			if ran[i].Swap(true) {
				return 0, fmt.Errorf("cell %d ran twice", i)
			}
			return i * i, nil
		})
		if err != nil {
			t.Errorf("jobs=%d: %v", jobs, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("jobs=%d: cell %d never ran", jobs, i)
			}
			if i < len(out) && out[i] != i*i {
				t.Errorf("jobs=%d: slot %d holds %d, want %d", jobs, i, out[i], i*i)
			}
		}
		if len(out) != len(ran) {
			t.Errorf("jobs=%d: %d results for %d cells", jobs, len(out), len(ran))
		}
	}
	out, err := runCells(nil, 4, func(int) (int, error) { return 0, errors.New("ran") })
	if len(out) != 0 || err != nil {
		t.Errorf("empty run returned %v, %v", out, err)
	}
}
