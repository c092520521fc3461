package segmentation_test

import (
	"fmt"

	"bluegs/internal/baseband"
	"bluegs/internal/segmentation"
)

// The paper's best-fit rule on a 200-byte packet with DH1+DH3 allowed:
// the largest packet first, then the remainder in the smallest that fits.
func ExampleBestFit() {
	plan, err := segmentation.BestFit(200, baseband.PaperTypes)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(plan, "using", plan.Slots(), "slots")
	// Output: [DH3:183 DH1:17] using 4 slots
}

// The paper's eq. 4 on its own workload: over packet sizes 144..176 every
// packet needs one DH3, so the worst bytes-per-poll is 144.
func ExampleMinPollEfficiency() {
	eff, err := segmentation.MinPollEfficiency(144, 176, baseband.PaperTypes)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("eta_min = %.0f bytes/poll at size %d\n", eff.BytesPerPoll, eff.Size)
	// Output: eta_min = 144 bytes/poll at size 144
}
