package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelCells runs fn(0), …, fn(n-1) on at most jobs goroutines (jobs ≤ 0
// means GOMAXPROCS) and returns each cell's error in its own slot. Cells
// start in index order, and once any cell fails the cells not yet started
// are skipped (their slots stay nil): every cell below the lowest failing
// index has already started, so firstError picks the same failure on every
// schedule. fn must only write state owned by its own index.
func parallelCells(n, jobs int, fn func(i int) error) []error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	jobs = min(jobs, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// firstError returns the lowest-index non-nil error of a parallelCells run.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
