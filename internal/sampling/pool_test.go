package sampling_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"netrel/internal/sampling"
)

func TestForEachCtxRunsEveryItemForAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 11
		var ran [n]atomic.Int32
		err := sampling.ForEachCtx(context.Background(), nil, n, workers, func(i int) error {
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, ran[i].Load())
			}
		}
	}
	if err := sampling.ForEachCtx(context.Background(), nil, 0, 4, func(int) error {
		t.Fatal("ran an item of an empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCtxPropagatesFailuresAndSkipsRemainder(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := sampling.ForEachCtx(context.Background(), nil, 8, 1, func(i int) error {
		if i == 2 {
			return boom
		}
		if i > 2 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Sequential item claiming: nothing after the failing item may run.
	if after.Load() != 0 {
		t.Fatalf("%d items ran after the failure with one worker", after.Load())
	}
}

func TestForEachCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := sampling.ForEachCtx(ctx, nil, 5, 2, func(int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("cancelled range ran %d items", ran.Load())
	}
}
