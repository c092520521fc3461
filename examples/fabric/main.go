// Fabric walkthrough: run one Fig. 5 sweep three ways — in-process, then
// distributed across a coordinator and two workers, then resumed from the
// journal with no workers at all — and verify all three render the
// byte-identical table.
//
// The coordinator implements harness.Executor, so the experiment code
// (experiments.Figure5) is the same in every pass; only Config.Executor
// changes. The workers here are goroutines in this process, but they talk
// to the coordinator exclusively over its HTTP protocol (/info, /lease,
// /complete, /heartbeat), exactly as `sweepd -join host:port` processes
// on other machines would.
//
// Run with:
//
//	go run ./examples/fabric
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bluegs/internal/experiments"
	"bluegs/internal/fabric"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A tiny sweep: 3 delay targets × 2 seed replications over 2 s of
	// simulated time. Small enough to finish in seconds, large enough to
	// need two leases.
	cfg := experiments.Config{Duration: 2 * time.Second, Seed: 1, Replications: 2}
	targets := []time.Duration{30 * time.Millisecond, 32 * time.Millisecond, 34 * time.Millisecond}

	// Pass 1 — in-process. This table is the reference the fabric must
	// reproduce byte for byte.
	local, err := render(cfg, targets)
	if err != nil {
		return err
	}
	fmt.Print("in-process:\n\n", local)

	// Pass 2 — distributed. The coordinator shards the grid into leases
	// and journals every completed run; two workers lease from it over HTTP and
	// execute through their own harness.Execute.
	dir, err := os.MkdirTemp("", "fabric-example-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "fig5.journal")

	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Grid:        "fig5",
		JournalPath: journal,
		Meta: fabric.JournalMeta{
			Grid:         "fig5",
			Cells:        []string{"30ms", "32ms", "34ms"},
			Duration:     cfg.Duration,
			Seed:         cfg.Seed,
			Replications: cfg.Replications,
		},
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			stats, err := fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator: coord.Addr(),
				Name:        name,
			})
			if err != nil {
				log.Printf("worker %s: %v", name, err)
				return
			}
			fmt.Printf("worker %s: %s\n", name, stats)
		}(fmt.Sprintf("w%d", i))
	}

	fabCfg := cfg
	fabCfg.Executor = coord
	distributed, err := render(fabCfg, targets)
	cancel()
	wg.Wait()
	stats := coord.Stats()
	if cerr := coord.Close(); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("coordinator: %s\n\ndistributed:\n\n%s", stats, distributed)
	if distributed != local {
		return fmt.Errorf("distributed table differs from the in-process table")
	}
	fmt.Println("distributed table is byte-identical to the in-process table")

	// Pass 3 — resume. A fresh coordinator over the same journal resolves
	// every run from it before leasing anything, so no workers are needed
	// and nothing re-executes.
	resumed, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Grid:        "fig5",
		JournalPath: journal,
		Resume:      true,
		Meta: fabric.JournalMeta{
			Grid:         "fig5",
			Cells:        []string{"30ms", "32ms", "34ms"},
			Duration:     cfg.Duration,
			Seed:         cfg.Seed,
			Replications: cfg.Replications,
		},
	})
	if err != nil {
		return err
	}
	resCfg := cfg
	resCfg.Executor = resumed
	replayed, err := render(resCfg, targets)
	rstats := resumed.Stats()
	if cerr := resumed.Close(); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("\nresume: %s\n", rstats)
	if replayed != local {
		return fmt.Errorf("resumed table differs from the in-process table")
	}
	if rstats.FromJournal != rstats.Runs {
		return fmt.Errorf("resume re-executed runs: %s", rstats)
	}
	fmt.Println("resumed table is byte-identical, rendered entirely from the journal")
	return nil
}

// render runs Figure5 under cfg and returns the rendered table text.
func render(cfg experiments.Config, targets []time.Duration) (string, error) {
	_, tbl, err := experiments.Figure5(cfg, targets)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		return "", err
	}
	buf.WriteString("\n")
	return buf.String(), nil
}
