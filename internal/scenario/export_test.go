package scenario

import (
	"sync"

	"bluegs/internal/sim"
)

// DrainKernels empties the runner's kernel pool, so the next run builds
// every kernel with sim.New.
func DrainKernels() { kernels = sync.Pool{} }

// PooledKernels empties the runner's kernel pool and returns what it held.
func PooledKernels() []*sim.Simulator {
	var out []*sim.Simulator
	for {
		s, ok := kernels.Get().(*sim.Simulator)
		if !ok {
			return out
		}
		out = append(out, s)
	}
}
