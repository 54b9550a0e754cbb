// Command perfbench is the repository's benchmark: it replays one of three
// deterministic TPC-D-cube workloads against the public DC-tree API,
// checks every answer against the sequential-scan oracle, and prints the
// workload's metrics. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Earlier lines hold the host and run block and
// the full report. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool // self-test size: small cube, short windows
	dir      string
	traceOut string
}

// env is what a workload runs with.
type env struct {
	cfg  config
	dir  string    // private scratch directory, removed after the run
	tr   *tracer   // nil in untraced runs
	main *recorder // phase spans of the controlling goroutine
	log  io.Writer // progress lines
}

// outcome is what a workload reports.
type outcome struct {
	params    any
	digest    string // sha256 of the generated inputs
	attempted int64  // client ops attempted in the timed window
	failed    int64  // client ops that errored or disagreed with the oracle
	problems  []string
	report    metrics
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps names to runners.
var workloads = map[string]func(*env) (*outcome, error){
	"olap_read":     runOLAPRead,
	"ingest":        runIngest,
	"durable_mixed": runDurableMixed,
}

// result is the final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns the exit code: 0 for a correct
// run, 1 for a run that completed with wrong answers or a growing backlog
// (its result line says correct=false), 2 when nothing could be measured.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: olap_read, ingest or durable_mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; one seed always yields the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&cfg.tiny, "tiny", false, "run at self-test size (small cube, short window)")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/work", "directory for the run's store and log files")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default <dir>/../traces/<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(filepath.Dir(cfg.dir), "traces",
			cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".jsonl")
	}
	return cfg, nil
}

// execute runs the workload and assembles the result line, printing the
// host and run block, the full report and (traced) the self-time table
// before it.
func execute(cfg config, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	e := &env{cfg: cfg, dir: dir, log: stderr}
	if cfg.trace {
		e.tr = newTracer()
		e.main = e.tr.recorder(0)
	}
	host := probeHost(dir)
	out, err := workloads[cfg.workload](e)
	if err != nil {
		return result{}, err
	}

	attempted := out.attempted
	if attempted < 1 {
		attempted = 1
	}
	out.report.set("error_ratio", float64(out.failed)/float64(attempted), "ratio")
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: attempted,
		Failed:    out.failed,
		Metrics:   metrics{},
	}
	names := e2eMetrics
	if cfg.trace {
		names = layerMetrics
	}
	for _, m := range names {
		v, ok := out.report[m.name]
		if !ok {
			v = metric{Unit: m.unit} // the layer did no work in this workload
		}
		res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
	}

	block := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "tiny": cfg.tiny, "host": host, "params": out.params,
		"input_sha256": out.digest, "problems": out.problems,
	}
	writeJSONLine(stdout, "run", block)
	writeJSONLine(stdout, "report", out.report)
	if cfg.trace {
		rows := e.tr.selfTimes()
		printSelfTimes(stdout, rows)
		n, err := e.tr.write(cfg.traceOut)
		if err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", n, cfg.traceOut)
	}
	return res, nil
}

func writeJSONLine(w io.Writer, tag string, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(w, "# %s %s\n", tag, b)
}

// logf writes a timestamped progress line.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "%s %s: %s\n", time.Now().Format("15:04:05.000"), e.cfg.workload, fmt.Sprintf(format, args...))
}

// phase times fn as a phase span of the controlling goroutine.
func (e *env) phase(name spanName, fn func() error) error {
	sp := e.main.begin(name, -1, 0, noTag)
	err := fn()
	e.main.end(sp)
	return err
}

// timeSetup runs build repeats times, keeping the last result, and
// reports setup_s as the median wall time. Earlier results are discarded
// with drop.
func timeSetup[T any](e *env, o *outcome, repeats int, build func(i int) (T, error), drop func(T)) (T, error) {
	var last T
	var secs []float64
	for i := 0; i < repeats; i++ {
		var cur T
		start := time.Now()
		err := e.phase(spSetup, func() (err error) { cur, err = build(i); return })
		if err != nil {
			return last, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < repeats-1 {
			drop(cur)
		}
		last = cur
	}
	o.report["setup_s"] = metric{Value: median(secs), Unit: "s", Samples: len(secs)}
	e.logf("setup %.3fs median of %d", median(secs), len(secs))
	return last, nil
}
