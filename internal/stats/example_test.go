package stats_test

import (
	"fmt"

	"bluegs/internal/stats"
)

func ExampleFairness() {
	fmt.Printf("%.3f\n", stats.Fairness([]float64{64, 64, 64, 64}))
	fmt.Printf("%.3f\n", stats.Fairness([]float64{256, 0, 0, 0}))
	// Output:
	// 1.000
	// 0.250
}
