package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bluegs/internal/harness"
)

// executor is the harness.Executor every workload routes its sweeps
// through. It keeps each resolved RunResult for the output checks and, when
// a tracer is attached, records a span per sweep and per run, all from
// outside the harness: around the Executor call and inside the
// Options.OnProgress callback.
type executor struct {
	inner   harness.Executor
	tr      *tracer
	parent  int
	results []harness.RunResult
}

// newExecutor returns an in-process executor, traced when tr is non-nil.
func newExecutor(tr *tracer) *executor {
	return &executor{inner: harness.Local{}, tr: tr}
}

// Execute implements harness.Executor.
func (x *executor) Execute(runs []harness.Run, opts harness.Options) ([]harness.RunResult, error) {
	end := x.sweep("harness.execute", &opts)
	res, err := x.inner.Execute(runs, opts)
	end()
	x.results = append(x.results, res...)
	return res, err
}

// ExecuteAdaptive implements harness.Executor.
func (x *executor) ExecuteAdaptive(g harness.Grid, cfg harness.SweepConfig, opts harness.AdaptiveOptions) ([]harness.CellOutcome, error) {
	end := x.sweep("harness.execute_adaptive", &opts.Options)
	out, err := x.inner.ExecuteAdaptive(g, cfg, opts)
	end()
	for _, o := range out {
		x.results = append(x.results, o.Runs...)
	}
	return out, err
}

// sweep opens a sweep span and makes opts.OnProgress record one span per
// resolved run under it; the returned function closes the sweep span.
func (x *executor) sweep(name string, opts *harness.Options) func() {
	if x.tr == nil {
		return func() {}
	}
	id := x.tr.begin(name, x.parent)
	next := opts.OnProgress
	opts.OnProgress = func(done, total int, r harness.RunResult) {
		x.tr.run(id, r)
		if next != nil {
			next(done, total, r)
		}
	}
	return func() { x.tr.end(id) }
}

// span runs f inside a named span (a plain call when untraced).
func (x *executor) span(name string, f func()) {
	if x.tr == nil {
		f()
		return
	}
	id := x.tr.begin(name, x.parent)
	outer := x.parent
	x.parent = id
	f()
	x.parent = outer
	x.tr.end(id)
}

// span is one recorded interval. Runs record their harness wall time
// (RunResult.Wall) ending at the moment the sweep reported them.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Iter     int    `json:"iteration"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Cell     string `json:"cell,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. Iter tags every span it
// records; probes record under iteration -1.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	iter     int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Workload: t.workload, Iter: t.iter, StartNS: t.now()})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = t.now()
}

func (t *tracer) run(parent int, r harness.RunResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: "harness.run",
		Workload: t.workload, Iter: t.iter, StartNS: end - r.Wall.Nanoseconds(), EndNS: end, Cell: r.Run.Cell})
}

// since returns the spans recorded from index first on.
func (t *tracer) since(first int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[first:]...)
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered is the length of the union of the spans' intervals, in seconds:
// the part of a parent's time its (possibly overlapping) children account
// for. A span's self time is its duration minus what its children cover.
func covered(spans []span) float64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		iv = append(iv, [2]int64{s.StartNS, s.EndNS})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return float64(total) / 1e9
}

// children returns the spans whose parent is id.
func children(spans []span, id int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// named returns the spans with the given name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// traceShare is the part of the time budget a traced invocation spends on
// untraced/traced iteration pairs; the layer probes use the rest.
const traceShare = 0.5

// traceRun is the -trace 1 invocation: pairs of one untraced and one traced
// iteration (alternating which goes first), then the layer probes. It
// reports every per-layer metric and writes the spans.
func traceRun(o options, w workload, e env, out io.Writer) (*report, error) {
	once := e
	once.size.setupRepeats = 1
	inst, _, err := setUp(w, once)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	rep := newReport(o, w)
	tr := newTracer(w.name)
	var t tally
	var plain, traced, spans, runs, events, execFrac []float64
	start := time.Now()
	for n := 0; n == 0 || budget(start, o.seconds*traceShare); n++ {
		for k := 0; k < 2; k++ {
			runtime.GC()
			if (n+k)%2 == 0 {
				x := newExecutor(nil)
				t0 := time.Now()
				res, err := inst.iterate(x)
				plain = append(plain, time.Since(t0).Seconds())
				t.iteration(fmt.Sprintf("untraced iteration %d", n), x, err, verified(inst, res, err))
				continue
			}
			tr.iter = n
			first := tr.mark()
			x := newExecutor(tr)
			var res any
			var iterErr error
			t0 := time.Now()
			x.span("iteration", func() { res, iterErr = inst.iterate(x) })
			traced = append(traced, time.Since(t0).Seconds())
			t.iteration(fmt.Sprintf("traced iteration %d", n), x, iterErr, verified(inst, res, iterErr))
			got := tr.since(first)
			spans = append(spans, float64(len(got)))
			runs = append(runs, float64(len(x.results)))
			events = append(events, float64(simEvents(x.results)))
			execFrac = append(execFrac, covered(named(got, "harness.execute"))/got[0].seconds())
		}
	}
	rep.Iterations = len(plain) + len(traced)
	tr.iter = -1
	layers, checks, err := probeLayers(e, tr)
	if err != nil {
		return nil, err
	}
	t.checks("layer probes", checks)
	layers["trace.overhead_ratio"] = []float64{median(traced) / median(plain)}
	layers["trace.spans"] = spans
	layers["harness.runs_per_iter"] = runs
	layers["sim.events_per_iter"] = events
	layers["harness.execute_frac"] = execFrac
	for _, l := range perLayer {
		samples, ok := layers[l.Name]
		if !ok || len(samples) == 0 {
			return nil, fmt.Errorf("layer metric %s was not measured", l.Name)
		}
		rep.add(out, l.metric, samples)
	}
	if err := tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "note: %d spans written to %s\n", tr.mark(), o.spans)
	t.finish(rep)
	return rep, nil
}

// simEvents sums the kernel events behind a run list's results (for a cache
// replay: the events recorded when the results were first simulated).
func simEvents(results []harness.RunResult) uint64 {
	var n uint64
	for _, r := range results {
		if r.Result != nil {
			n += r.Result.Events
		}
	}
	return n
}

// verified runs the instance's output checks on a successful iteration.
func verified(inst instance, res any, err error) []verdict {
	if err != nil {
		return nil
	}
	checks, _ := inst.verify(res)
	return checks
}
