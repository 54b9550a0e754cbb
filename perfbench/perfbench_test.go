package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestCatalogMatchesBenchmarkJSON pins the metric lists and workload names
// in the code to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, code []metricDef, declared []struct{ Name, Unit string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: code lists %d metrics, BENCHMARK.json %d", kind, len(code), len(declared))
			return
		}
		for i, m := range code {
			if m.name != declared[i].Name || m.unit != declared[i].Unit {
				t.Errorf("%s[%d]: code %s [%s], BENCHMARK.json %s [%s]",
					kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, bj.EndToEnd)
	check("per_layer", layerMetrics, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, code runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// smokeRun is one tiny-size invocation's parsed output.
type smokeRun struct {
	code   int
	res    result
	digest string
	stdout string
}

func runTiny(t *testing.T, workload string, seed int64, trace int) smokeRun {
	t.Helper()
	dir := t.TempDir()
	var stdout bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1",
		"--trace", fmt.Sprint(trace), "--tiny", "--dir", filepath.Join(dir, "work"),
		"--trace-out", filepath.Join(dir, "spans.jsonl"),
	}, &stdout, io.Discard)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	sr := smokeRun{code: code, stdout: out}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sr.res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# run "); ok {
			var block struct {
				Digest string `json:"input_sha256"`
			}
			if err := json.Unmarshal([]byte(rest), &block); err != nil {
				t.Fatal(err)
			}
			sr.digest = block.Digest
		}
	}
	if trace == 1 {
		if fi, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: traced run wrote no spans (%v)", workload, err)
		}
		if !strings.Contains(out, "# per-layer self time") {
			t.Errorf("%s: traced run printed no self-time table", workload)
		}
	}
	return sr
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the run is correct and prints exactly the metrics
// BENCHMARK.json names, each with its unit; untraced end-to-end values
// must be positive.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				sr := runTiny(t, w.Name, 1, trace)
				if sr.code != 0 || !sr.res.Correct || sr.res.Failed != 0 || sr.res.Attempted < 1 {
					t.Fatalf("run not clean: exit %d, result %+v\n%s", sr.code, sr.res, sr.stdout)
				}
				if len(sr.res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(sr.res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := sr.res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestInputsDeterministic checks that one seed yields byte-identical
// generated inputs (base rows, op stream and query list, hashed) and that
// another seed yields different ones and also runs clean — so a claim can
// be re-checked on a seed not used while it was developed.
func TestInputsDeterministic(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := runTiny(t, name, 7, 0), runTiny(t, name, 7, 0)
			if a.digest == "" || a.digest != b.digest {
				t.Errorf("seed 7 inputs differ between runs: %q vs %q", a.digest, b.digest)
			}
			c := runTiny(t, name, 8, 0)
			if c.digest == a.digest {
				t.Errorf("seeds 7 and 8 generated identical inputs")
			}
			if c.code != 0 || !c.res.Correct {
				t.Errorf("seed 8 run not clean: exit %d, result %+v", c.code, c.res)
			}
		})
	}
}

// TestBadFlags checks that an invocation that cannot measure anything
// exits nonzero without a result line.
func TestBadFlags(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
