package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run is the deterministic parallel replication engine every sweep of
// the package runs on. It executes body for every cell index in [0, n)
// on up to workers goroutines (zero or negative means GOMAXPROCS) and
// calls fold exactly once per cell, in ascending cell order, on the
// calling goroutine. Because the fold order is fixed, pooled
// floating-point statistics (Welford merges, weighted sums, appended
// sample vectors) are bit-identical for any worker count — determinism
// is a property of the engine, not of GOMAXPROCS.
//
// The first error — from body or fold, in cell order — stops the run
// and is returned wrapped with its cell index. Bodies must be
// independent: they may not share mutable state, and any randomness
// must come from per-cell streams derived from the index.
func Run[T any](workers, n int, body func(i int) (T, error), fold func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fast path: identical semantics, no goroutines.
		for i := 0; i < n; i++ {
			v, err := body(i)
			if err != nil {
				return fmt.Errorf("experiment: replication %d: %w", i, err)
			}
			if err := fold(i, v); err != nil {
				return fmt.Errorf("experiment: folding replication %d: %w", i, err)
			}
		}
		return nil
	}

	type cell struct {
		v   T
		err error
	}
	// One buffered channel per cell: workers never block on delivery,
	// and the caller receives strictly in index order.
	results := make([]chan cell, n)
	for i := range results {
		results[i] = make(chan cell, 1)
	}
	jobs := make(chan int)
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if abort.Load() {
					results[i] <- cell{err: fmt.Errorf("aborted")}
					continue
				}
				v, err := body(i)
				results[i] <- cell{v: v, err: err}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
	}()
	// On early return the abort flag turns the remaining bodies into
	// no-ops; result cells are buffered, so workers and the feeder
	// always run to completion without blocking.
	defer func() {
		abort.Store(true)
		wg.Wait()
	}()

	for i := 0; i < n; i++ {
		c := <-results[i]
		if c.err != nil {
			return fmt.Errorf("experiment: replication %d: %w", i, c.err)
		}
		if err := fold(i, c.v); err != nil {
			return fmt.Errorf("experiment: folding replication %d: %w", i, err)
		}
	}
	return nil
}
