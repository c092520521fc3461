package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"bluegs/internal/stats"
)

// metric declares one reported number. BENCHMARK.json at the repository
// root carries the same declarations; TestBenchmarkJSONMatchesCode keeps
// the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them.
//
// Host times take maxBound: on the shared two-core host this benchmark was
// defined on, two sets of ten runs of the same code differed by 11% in
// median wall time, so a 10% bound would reject unchanged code. Memory is
// nearly deterministic and takes memoryBound. README.md lists the spread
// measured against these bounds.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: maxBound},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: maxBound},
	{Name: "sim_s_per_wall_s", Unit: "s/s", Better: "higher", Bound: maxBound},
	{Name: "alloc_mb", Unit: "MiB", Better: "lower", Bound: memoryBound},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower", Bound: memoryBound},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: maxBound},
}

const (
	// maxBound is the widest regression bound an end-to-end metric may take.
	maxBound = 0.25
	// memoryBound is the bound of the allocation and peak-RSS metrics.
	memoryBound = 0.10
)

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// stat is one metric's sample distribution in the detailed report. Value is
// what the result line reports: the median.
type stat struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Value  float64 `json:"value"`
	Best   float64 `json:"best"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Mean   float64 `json:"mean"`
	CI95   float64 `json:"ci95"`
	N      int     `json:"n"`
}

// report is one workload invocation's detailed outcome, written by -out.
type report struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Iterations int     `json:"iterations"`
	// RefMedian is the median reference pass in seconds, and Slowness
	// RefMedian over refNominal: a host time in reference seconds times
	// Slowness is the time the stopwatch read.
	RefMedian float64         `json:"ref_median_s,omitempty"`
	Slowness  float64         `json:"host_slowness,omitempty"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Notes     []string        `json:"notes,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	order     []string
}

// allReport is the -out document of a run over every workload.
type allReport struct {
	Go         string   `json:"go"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workloads  []report `json:"workloads"`
}

// add summarizes one metric's samples into the report and prints its line:
// name, reported value (the median), unit, best sample (the lowest, or the
// highest when higher is better), median, quartiles, mean with its 95%
// interval, and n.
func (r *report) add(out io.Writer, m metric, samples []float64) {
	var q stats.Sample
	for _, x := range samples {
		q.Add(x)
	}
	s := stats.Summarize(samples)
	st := stat{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Best: q.Min(),
		Median: q.Quantile(0.5), Q1: q.Quantile(0.25), Q3: q.Quantile(0.75),
		Mean: s.Mean, CI95: s.CI95, N: s.N}
	if m.Better == "higher" {
		st.Best = q.Max()
	}
	st.Value = st.Median
	r.Metrics[m.Name] = st
	r.order = append(r.order, m.Name)
	fmt.Fprintf(out, "%-34s %14.6g %-6s best %-12.6g median %-12.6g q1 %-12.6g q3 %-12.6g mean %.6g ±%.3g  n=%d\n",
		m.Name, st.Value, m.Unit, st.Best, st.Median, st.Q1, st.Q3, st.Mean, st.CI95, st.N)
}

// tally counts attempted and failed operations: every run an iteration
// resolves and every output check it makes.
type tally struct {
	attempted, failed int
	failures          []string
}

// iteration books one iteration: its runs (a run error is a failure), its
// checks, and the iteration's own error when no failed run explains it.
func (t *tally) iteration(label string, x *executor, err error, checks []verdict) {
	failedRuns := 0
	for _, r := range x.results {
		t.attempted++
		if r.Err != nil {
			failedRuns++
			t.fail(fmt.Sprintf("%s: run %d (cell %s rep %d): %v", label, r.Run.Index, r.Run.Cell, r.Run.Rep, r.Err))
		}
	}
	if err != nil && failedRuns == 0 {
		t.attempted++
		t.fail(fmt.Sprintf("%s: %v", label, err))
	}
	t.checks(label, checks)
}

func (t *tally) checks(label string, checks []verdict) {
	for _, c := range checks {
		t.attempted++
		if !c.ok {
			t.fail(fmt.Sprintf("%s: check %q failed: %s", label, c.name, c.detail))
		}
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, msg)
	}
}

func (t *tally) finish(r *report) {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.failures
	r.Correct = t.failed == 0 && t.attempted > 0
	for _, f := range t.failures {
		fmt.Fprintln(os.Stderr, "bench: FAIL", f)
	}
}

func newReport(o options, w workload) *report {
	return &report{Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Metrics: map[string]stat{}}
}

// setUp builds the workload's instance size.setupRepeats times and returns
// the last instance with every set-up's duration.
func setUp(w workload, e env) (instance, []float64, error) {
	var inst instance
	var times []float64
	for k := 0; k < max(1, e.size.setupRepeats); k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

// measure runs the workload's timed iterations for o.seconds and reports the
// end-to-end metrics. Each iteration starts from a collected heap and one
// reference pass (reference.go); set-up, garbage collection, the reference
// and output checks stay outside the timed region. Host times are reported
// in reference seconds; an iteration's idle timer wait is added back as it
// is. With -cpuprofile the profile covers the iteration loop, not set-up.
func measure(o options, w workload, e env, out io.Writer) (*report, error) {
	inst, setups, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if o.cpuprofile != "" {
		stop, err := startProfile(filepath.Join(o.cpuprofile, w.name+".pprof"))
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	rep := newReport(o, w)
	var t tally
	ref := newRefLoop()
	var wall, cpu, alloc, refs []float64
	start := time.Now()
	for n := 0; n == 0 || budget(start, o.seconds); n++ {
		runtime.GC()
		refs = append(refs, ref.time())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuSeconds()
		x := newExecutor(nil)
		t0 := time.Now()
		res, err := inst.iterate(x)
		d := time.Since(t0).Seconds()
		c1 := cpuSeconds()
		runtime.ReadMemStats(&m1)
		var checks []verdict
		if err == nil {
			checks, rep.Notes = inst.verify(res)
		}
		t.iteration(fmt.Sprintf("iteration %d", n), x, err, checks)
		wall = append(wall, d)
		cpu = append(cpu, c1-c0)
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	rep.Iterations = len(wall)
	rep.RefMedian = median(refs)
	rep.Slowness = rep.RefMedian / refNominal
	idle := inst.idle().Seconds()
	var refWall, rate []float64
	for _, d := range wall {
		rw := idle + (d-idle)/rep.Slowness
		refWall = append(refWall, rw)
		rate = append(rate, inst.simulated().Seconds()/rw)
	}
	samples := map[string][]float64{
		"wall_s": refWall, "cpu_s": scaled(cpu, 1/rep.Slowness),
		"sim_s_per_wall_s": rate, "alloc_mb": alloc,
		"max_rss_mb": {maxRSSMiB()}, "setup_s": scaled(setups, 1/rep.Slowness),
	}
	for _, m := range endToEnd {
		rep.add(out, m, samples[m.Name])
	}
	fmt.Fprintf(out, "note: host slowness %.4f: reference pass median %.4g s over %d passes, nominal %g s; wall_s, cpu_s, sim_s_per_wall_s and setup_s are in reference seconds, but for %g s idle per iteration\n",
		rep.Slowness, rep.RefMedian, len(refs), refNominal, idle)
	for _, note := range rep.Notes {
		fmt.Fprintln(out, "note:", note)
	}
	t.finish(rep)
	return rep, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// scaled returns xs, each multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func median(xs []float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Quantile(0.5)
}
