package gs_test

import (
	"fmt"
	"time"

	"bluegs/internal/gs"
	"bluegs/internal/tspec"
)

// The paper's §4.1 numbers: a 64 kbps voice-like flow served at the
// maximal admissible rate by the lowest-priority poll stream.
func ExampleDelayBound() {
	spec := tspec.CBR(20*time.Millisecond, 144, 176) // p=r=8.8kB/s, b=M=176
	terms := gs.ErrorTerms{C: 144, D: 11250 * time.Microsecond}
	bound, err := gs.DelayBound(spec, 12800, terms)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(bound)
	// Output: 36.25ms
}

// The receiver-side computation: how much rate achieves a 40 ms bound?
func ExampleRequiredRate() {
	spec := tspec.CBR(20*time.Millisecond, 144, 176)
	terms := gs.ErrorTerms{C: 144, D: 11250 * time.Microsecond}
	rate, err := gs.RequiredRate(spec, 40*time.Millisecond, terms)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.1f bytes/s\n", rate)
	// Output: 11130.4 bytes/s
}

// The error terms the paper's poller exports for its lowest-priority
// flow: C = eta_min bytes, D = x_i.
func ExampleErrorTerms() {
	fmt.Println(gs.ErrorTerms{C: 144, D: 11250 * time.Microsecond})
	// Output: (C=144.0B, D=11.25ms)
}
