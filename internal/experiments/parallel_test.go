package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestParallelCellsSerialOrderAndSkip pins jobs=1: cells run in index
// order, and after the first failure the remaining cells are skipped.
func TestParallelCellsSerialOrderAndSkip(t *testing.T) {
	boom := errors.New("boom")
	var order []int
	errs := parallelCells(10, 1, func(i int) error {
		order = append(order, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("ran cells %v, want %v", order, want)
	}
	for i, err := range errs {
		if (i == 3) != (err != nil) {
			t.Errorf("slot %d holds %v", i, err)
		}
	}
	if err := firstError(errs); !errors.Is(err, boom) {
		t.Errorf("firstError = %v, want boom", err)
	}
}

// TestParallelCellsLowestIndexError makes a higher-index cell fail first
// while a lower-index cell is still running: the reported error must be
// the lower index's, whatever the completion order.
func TestParallelCellsLowestIndexError(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		gate := make(chan struct{})
		errs := parallelCells(8, 2, func(i int) error {
			switch i {
			case 1:
				// Cell 5 opens the gate. It always starts, since no
				// cell can fail before it does.
				<-gate
				return fmt.Errorf("cell %d", i)
			case 5:
				close(gate)
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
		if err := firstError(errs); err == nil || err.Error() != "cell 1" {
			t.Fatalf("rep %d: firstError = %v, want cell 1", rep, err)
		}
	}
}

// TestParallelCellsRunsEveryCell covers the success path, with more
// workers than cells and with none at all.
func TestParallelCellsRunsEveryCell(t *testing.T) {
	for _, jobs := range []int{0, 3, 64} {
		var ran [17]atomic.Bool
		errs := parallelCells(len(ran), jobs, func(i int) error {
			if ran[i].Swap(true) {
				return fmt.Errorf("cell %d ran twice", i)
			}
			return nil
		})
		if err := firstError(errs); err != nil {
			t.Errorf("jobs=%d: %v", jobs, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("jobs=%d: cell %d never ran", jobs, i)
			}
		}
	}
	if errs := parallelCells(0, 4, func(int) error { return errors.New("ran") }); len(errs) != 0 {
		t.Errorf("empty run returned %v", errs)
	}
}
