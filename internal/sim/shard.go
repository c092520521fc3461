package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// ShardSet drives a fixed set of independent Simulators ("shards") to a
// common horizon in lockstep epochs: every shard runs its own event
// kernel up to the epoch boundary, then all shards synchronize at a
// barrier where the caller's exchange hook runs single-threaded. This is
// the conservative parallel-discrete-event-simulation shape: shards may
// interact only through state the hook swaps at barriers (it may also
// schedule events into any shard, at or after the boundary), so the
// epoch length is the lookahead the coupling model must tolerate.
//
// Determinism is the design constraint, exactly as for a single
// Simulator. Shards share no mutable state while an epoch runs (each
// kernel, its RNG and its seq counter are private), and the exchange
// hook runs on one goroutine with every shard clock parked at the
// boundary. The worker count therefore multiplexes shard execution
// without touching any ordering input: results are byte-identical at any
// worker count, including workers == 1.
type ShardSet struct {
	shards []*Simulator
}

// PanicError is the error RunEpochs reports for a shard whose handler
// panicked: the shard index, the panic value, and the panicking
// goroutine's stack, captured before the recover unwinds it.
type PanicError struct {
	Shard int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: shard %d panicked: %v", e.Shard, e.Value)
}

// NewShardSet groups the given simulators into a shard set. The slice
// order fixes the shard indices errors are reported under.
func NewShardSet(shards ...*Simulator) *ShardSet {
	return &ShardSet{shards: shards}
}

// RunEpochs drives every shard to horizon in lockstep epochs of the
// given length (epoch <= 0 means a single epoch spanning the whole
// horizon), running shard kernels on up to `workers` goroutines
// (workers <= 1 runs them inline on the calling goroutine, with no
// goroutines at all). After every epoch — including the final one — the
// barrier calls exchange (when non-nil) single-threaded with every shard
// clock at the boundary.
//
// The returned slice holds one error per shard: ErrStopped for shards
// that called Stop, a *PanicError for shards whose handlers panicked.
// The first epoch in which any shard fails is the last epoch run — the
// surviving shards still complete it (the barrier is the abort point,
// keeping the set of fired events independent of the worker count).
func (ss *ShardSet) RunEpochs(horizon, epoch Time, workers int, exchange func(end Time)) []error {
	errs := make([]error, len(ss.shards))
	if len(ss.shards) == 0 {
		return errs
	}
	if epoch <= 0 {
		epoch = horizon
	}
	if workers > len(ss.shards) {
		workers = len(ss.shards)
	}

	runShard := func(i int, end Time) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Shard: i, Value: r, Stack: debug.Stack()}
			}
		}()
		if errs[i] == nil {
			errs[i] = ss.shards[i].Run(end)
		}
	}

	var tasks chan int
	var done chan struct{}
	var end Time
	if workers > 1 {
		// One slot per shard: the caller queues a whole epoch without
		// blocking, then collects one receipt per shard.
		tasks = make(chan int, len(ss.shards))
		done = make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range tasks {
					runShard(i, end)
					done <- struct{}{}
				}
			}()
		}
		defer func() {
			close(tasks)
			wg.Wait()
		}()
	}

	for start := Time(0); start < horizon || start == 0; start += epoch {
		end = start + epoch
		if end > horizon {
			end = horizon
		}
		if workers > 1 {
			// The sends below happen-before each worker's Run, and every
			// receive happens-after it: the barrier is a full memory fence
			// between epochs, so the exchange hook reads settled state.
			for i := range ss.shards {
				tasks <- i
			}
			for range ss.shards {
				<-done
			}
		} else {
			for i := range ss.shards {
				runShard(i, end)
			}
		}
		if exchange != nil {
			exchange(end)
		}
		for _, err := range errs {
			if err != nil {
				return errs
			}
		}
		if end >= horizon {
			break
		}
	}
	return errs
}
