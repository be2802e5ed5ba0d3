package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cluseq/internal/obs"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, extra := range []int{0, 1, 3, 7} {
		p := New(extra)
		for _, n := range []int{0, 1, 2, 5, 100, 1000} {
			hits := make([]atomic.Int32, n)
			p.Run(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("extra=%d n=%d: index %d executed %d times", extra, n, i, got)
				}
			}
		}
	}
}

// TestRunGrainMatchesPerItemDispatch checks that Run claims one index
// at a time. It runs w = extra+1 indices, and each one waits until all
// w are running at once. That can happen only if every worker holds
// exactly one index. If a worker claimed a chunk of two or more, the
// barrier would never fill. (The name comes from the chunked RunGrain
// dispatcher that Run replaced; Run always dispatches per item.)
func TestRunGrainMatchesPerItemDispatch(t *testing.T) {
	for _, extra := range []int{1, 3, 7} {
		p := New(extra)
		n := extra + 1
		var arrived sync.WaitGroup
		arrived.Add(n)
		all := make(chan struct{})
		go func() { arrived.Wait(); close(all) }()
		hits := make([]atomic.Int32, n)
		p.Run(n, func(i int) {
			if i < 0 || i >= n {
				t.Errorf("extra=%d: out-of-range index %d", extra, i)
				return
			}
			hits[i].Add(1)
			arrived.Done()
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				t.Errorf("extra=%d: index %d never ran alongside the other %d", extra, i, n-1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("extra=%d: index %d executed %d times", extra, i, got)
			}
		}
	}
}

// TestRunGrainAutoSerialStaysInOrder checks that a Run which finds
// every helper slot taken falls back to the caller's goroutine on its
// own: it neither waits for a slot nor skips an index, and it visits
// the indices in order. (The name comes from RunGrain's automatic
// grain; the fallback to serial is what remains of it in Run.)
func TestRunGrainAutoSerialStaysInOrder(t *testing.T) {
	p := New(2)
	for j := 0; j < p.Size(); j++ {
		p.slots <- struct{}{} // another batch holds every helper
	}
	var order []int
	done := make(chan struct{})
	go func() {
		p.Run(50, func(i int) { order = append(order, i) })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run on a saturated pool waited for a helper slot")
	}
	if len(order) != 50 {
		t.Fatalf("saturated run visited %d indices, want 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("saturated run out of order at %d: %v", i, v)
		}
	}
	for j := 0; j < p.Size(); j++ {
		<-p.slots
	}
}

func TestRunSerialWhenNoHelpers(t *testing.T) {
	p := New(0)
	// With no helper slots every index must run on the caller's
	// goroutine, in order.
	for _, n := range []int{1, 2, 50, 1000} {
		var order []int
		p.Run(n, func(i int) { order = append(order, i) })
		if len(order) != n {
			t.Fatalf("n=%d: serial run visited %d indices", n, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("n=%d: serial run out of order at %d: %v", n, i, v)
			}
		}
	}
}

func TestConcurrentRunCalls(t *testing.T) {
	p := New(4)
	const callers = 8
	const n = 200
	var total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(n, func(i int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != callers*n {
		t.Fatalf("concurrent runs executed %d calls, want %d", got, callers*n)
	}
}

func TestInstrumentCountsRuns(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(2)
	p.Instrument(reg, "pool")

	p.Run(100, func(int) {})
	p.Run(50, func(int) {})
	p.Run(0, func(int) {}) // empty runs are not dispatched or counted

	if got := reg.Counter("pool_runs_total").Value(); got != 2 {
		t.Fatalf("runs_total = %d, want 2", got)
	}
	if got := reg.Counter("pool_tasks_total").Value(); got != 150 {
		t.Fatalf("tasks_total = %d, want 150", got)
	}
	if got := reg.Histogram("pool_run_seconds", 0, 5, 500).Count(); got != 2 {
		t.Fatalf("run_seconds count = %d, want 2", got)
	}
}

func TestUninstrumentedPoolStillRuns(t *testing.T) {
	p := New(1)
	p.Instrument(nil, "pool") // nil registry: stays uninstrumented
	var total atomic.Int64
	p.Run(10, func(int) { total.Add(1) })
	if total.Load() != 10 {
		t.Fatalf("executed %d calls, want 10", total.Load())
	}
}

func TestNegativeExtraNormalizes(t *testing.T) {
	p := New(-3)
	if p.Size() != 0 {
		t.Fatalf("Size() = %d, want 0", p.Size())
	}
	done := false
	p.Run(1, func(int) { done = true })
	if !done {
		t.Fatal("Run skipped the only index")
	}
}
