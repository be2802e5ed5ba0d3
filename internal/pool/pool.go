// Package pool provides the bounded fan-out helper shared by every
// parallel loop in this repository: the clustering engine's scoring
// phases, cmd/classify's batch classification, and the serving daemon's
// batch requests.
//
// A Pool is a semaphore over helper goroutines. Run(n, fn) invokes
// fn(i) for every i in [0, n) with dynamic (work-stealing) index
// assignment, which keeps workers busy when per-index cost is skewed
// (long sequences, large trees). The calling goroutine always
// participates as a worker, so a pool of size w−1 yields w-way
// parallelism with no idle coordinator — and, crucially, a Run call
// that finds the pool saturated still makes progress on the caller's
// own goroutine instead of blocking behind other batches.
//
// Unlike a fixed set of long-lived workers, Run may be called
// concurrently from many goroutines (the serving daemon fans every
// batch request through one shared pool): the semaphore bounds the
// total helper goroutines across all concurrent batches, so one large
// batch cannot starve small ones — it can only monopolize the helpers,
// never another caller's goroutine.
package pool

import (
	"sync"
	"sync/atomic"
	"time"

	"cluseq/internal/obs"
)

// Pool bounds the number of helper goroutines available to Run calls.
// The zero value is not usable; construct with New.
type Pool struct {
	extra int
	slots chan struct{}

	// Observability handles (see Instrument). Nil handles are no-ops,
	// so the fan-out path never branches on "is obs enabled".
	tasks *obs.Counter   // indices dispatched across all Run calls
	runs  *obs.Counter   // Run invocations
	wall  *obs.Histogram // per-Run wall time, seconds
}

// New returns a pool with the given number of helper goroutine slots.
// extra ≤ 0 yields a pool whose Run executes serially on the caller.
func New(extra int) *Pool {
	if extra < 0 {
		extra = 0
	}
	return &Pool{extra: extra, slots: make(chan struct{}, extra)}
}

// Size returns the number of helper slots (parallelism is Size()+1 per
// concurrent caller, bounded overall by Size() + number of callers).
func (p *Pool) Size() int { return p.extra }

// Instrument registers the pool's metrics — <prefix>_tasks_total,
// <prefix>_runs_total, and the <prefix>_run_seconds wall-time
// histogram — on the registry and starts recording into them. A nil
// registry leaves the pool uninstrumented (the default). Call before
// the pool is shared across goroutines; the handles are plain fields.
func (p *Pool) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	p.tasks = reg.Counter(prefix + "_tasks_total")
	p.runs = reg.Counter(prefix + "_runs_total")
	// [0, 5s) at 10ms resolution: a Run is one batch fan-out, far
	// shorter than a whole phase.
	p.wall = reg.Histogram(prefix+"_run_seconds", 0, 5, 500)
}

// Run executes fn(0) … fn(n−1) and returns when every index is done.
// Indices are handed out dynamically, one per claim, which keeps every
// worker busy however skewed the per-index cost; fn must be safe for
// concurrent invocation on distinct indices. Helpers are acquired
// opportunistically: Run never blocks waiting for a slot.
//
//cluseq:hotpath
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.runs != nil { //cluseq:allow hotpath: dispatch-metrics epilogue; uninstrumented pools pay one branch
		start := time.Now()
		defer func() {
			p.runs.Inc()
			p.tasks.Add(int64(n))
			p.wall.ObserveSince(start)
		}()
	}
	var next atomic.Int64
	work := func() { //cluseq:allow hotpath: one closure per Run amortizes over the whole batch
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	// At most n−1 helpers are useful: the caller takes one index itself.
	helpers := min(p.extra, n-1)
	var wg sync.WaitGroup
acquire:
	for j := 0; j < helpers; j++ { //cluseq:allow hotpath: opportunistic helper acquisition is the fan-out itself; never blocks
		select {
		case p.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.slots }()
				work()
			}()
		default:
			break acquire // saturated; the caller works alone
		}
	}
	work()    //cluseq:allow hotpath: the caller's own work lane; fn is the batch payload, dynamic by design
	wg.Wait() //cluseq:allow hotpath: join barrier; Run's contract is completion of every index
}
