package sampling

import (
	"context"
	"sync"
	"sync/atomic"
)

// Executor lends goroutines to chunked executions. TryGo offers fn for
// asynchronous execution and reports whether it was accepted; on false, fn
// is not (and will never be) run, and the caller keeps the work. The
// engine's shared worker pool implements Executor; a nil Executor means
// "spawn a goroutine per slot", the standalone behavior.
type Executor interface {
	TryGo(fn func()) bool
}

// ForEachChunkCtx executes fn(c) for every chunk index c in [0, n), where
// fn is produced per worker slot by newWorker (letting each slot own its
// scratch state — RNG buffers, union-find arenas, frontier scratch).
// Chunks are claimed from a shared atomic counter, so the assignment of
// chunks to slots is scheduling-dependent — which is why chunk work
// functions must derive all randomness from the chunk index (via
// SeedStream), never from the slot identity. The schedule — boundaries and
// the claim counter — depends only on n, never on workers, ctx, or exec,
// so results are bit-identical however the slots are executed.
//
// The caller always runs one slot inline; the remaining workers−1 are
// offered to exec, whose idle pool workers may accept them (a refused slot
// simply isn't run — its chunks fall to the accepted slots and the
// caller). Offers stop at the first refusal: a busy pool stays busy on the
// microsecond scale of an offer loop, so later offers would only waste
// scratch construction. With a nil exec every slot gets its own goroutine
// (the standalone mode); with workers ≤ 1 (or a single chunk) everything
// runs inline either way.
//
// Cancellation is chunk-granular: every slot re-checks ctx before claiming
// its next chunk and stops claiming once ctx is done. ForEachChunkCtx then
// returns ctx.Err(); the caller must treat its chunk results as partial
// garbage and propagate the error. A context-free caller passes
// context.Background() and pays no cancellation cost (its Done channel is
// nil). All slot functions have returned by the time ForEachChunkCtx
// returns, so per-slot scratch is safe to reuse.
//
// newWorker is always invoked on the calling goroutine (implementations
// hand out pre-built per-slot state without synchronization).
func ForEachChunkCtx(ctx context.Context, exec Executor, n, workers int, newWorker func() func(chunk int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = ClampWorkers(workers, n)
	done := ctx.Done()
	var next atomic.Int64
	runSlot := func(fn func(int)) {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			c := int(next.Add(1)) - 1
			if c >= n {
				return
			}
			fn(c)
		}
	}
	if workers == 1 {
		runSlot(newWorker())
		return ctx.Err()
	}
	var wg sync.WaitGroup
	offering := true
	for w := 1; w < workers && (exec == nil || offering); w++ {
		fn := newWorker()
		wg.Add(1)
		slot := func() {
			defer wg.Done()
			runSlot(fn)
		}
		if exec != nil {
			if !exec.TryGo(slot) {
				// No idle pool worker: drop this slot and stop offering —
				// the inline slot below (and any accepted ones) absorb the
				// remaining chunks.
				wg.Done()
				offering = false
			}
		} else {
			go slot()
		}
	}
	runSlot(newWorker())
	wg.Wait()
	return ctx.Err()
}

// ForEachChunkRangeCtx is ForEachChunkCtx over the half-open global chunk
// range [first, first+n): chunks are claimed exactly as ForEachChunkCtx
// claims [0, n), and fn receives the global chunk index. Resumable schedules
// use it to execute a mid-stream window of a stratum's chunks with the same
// per-chunk streams a full run would derive for those indices.
func ForEachChunkRangeCtx(ctx context.Context, exec Executor, first, n, workers int, newWorker func() func(chunk int)) error {
	if first == 0 {
		return ForEachChunkCtx(ctx, exec, n, workers, newWorker)
	}
	return ForEachChunkCtx(ctx, exec, n, workers, func() func(int) {
		fn := newWorker()
		return func(c int) { fn(first + c) }
	})
}

// ForEachCtx runs fn(i) for every item i in [0, n) that can fail, on
// ForEachChunkCtx's schedule (one item per chunk). Once any item fails,
// slots stop running the remaining items rather than working into the void
// — which items were skipped is schedule-dependent, but only the error path
// can observe that — and the recorded errors are folded in index order, so
// the error returned is deterministically the lowest-index failure among
// the items that ran. Cancellation is item-granular: a cancelled ctx stops
// item claiming and ForEachCtx returns ctx.Err().
func ForEachCtx(ctx context.Context, exec Executor, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	errs := make([]error, n)
	var failed atomic.Bool
	if err := ForEachChunkCtx(ctx, exec, n, workers, func() func(int) {
		return func(i int) {
			if failed.Load() {
				return
			}
			if err := fn(i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
