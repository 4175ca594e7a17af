package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		counts := make([]atomic.Int32, n)
		For(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	ran := false
	For(4, 0, func(int) { ran = true })
	For(4, -3, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 5} {
		got, err := MapErr(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	// Fail several indices; the reported error must be the lowest one,
	// matching what a sequential loop would hit first.
	for _, workers := range []int{1, 8} {
		err := ForErr(workers, 50, func(i int) error {
			if i == 7 || i == 31 || i == 49 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 7" {
			t.Fatalf("workers=%d: got %v, want item 7", workers, err)
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	if err := ForErr(4, 20, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMapErr(t *testing.T) {
	out, err := MapErr(4, 10, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	sentinel := errors.New("boom")
	out, err = MapErr(4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) || out != nil {
		t.Fatalf("got out=%v err=%v, want nil results and sentinel", out, err)
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(0) != DefaultWorkers() || Normalize(-2) != DefaultWorkers() {
		t.Fatal("non-positive workers should normalise to DefaultWorkers")
	}
	if Normalize(3) != 3 {
		t.Fatal("positive workers should pass through")
	}
}
