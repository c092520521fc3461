package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the report goldens instead of comparing against them:
//
//	go test ./cmd/report -update
var update = flag.Bool("update", false, "rewrite the report goldens")

// reportArgsEnv carries the command line of a report invocation into the
// re-executed test binary, which then runs main instead of the tests.
const reportArgsEnv = "BLUEGS_REPORT_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(reportArgsEnv); ok {
		os.Args = append([]string{"report"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runReport runs the command with args in a child process and returns
// its stdout.
func runReport(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), reportArgsEnv+"="+args)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("report %s: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestReportGolden pins every table the report prints (T1 … E12), byte
// for byte, at one and at two replications per cell: a refactor of the
// experiment or sweep plumbing must leave these files unedited.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"report_10s_seed1.golden", "-duration 10s -seed 1"},
		{"report_5s_seed1_reps2.golden", "-duration 5s -seed 1 -reps 2"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			got := runReport(t, tc.args)
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("report %s drifted from %s\n--- got ---\n%s--- want ---\n%s",
					tc.args, path, got, want)
			}
		})
	}
}
