// Command perfbench is the repository's benchmark. One run builds a
// seeded xmark1 document into a durable, indexed document and drives one
// workload against the public entry points (xmlvi.Document, its Txn and
// the HTTP handler of internal/server) for a fixed time, checking every
// answer it can against the scan oracle.
//
//	perfbench -workload lookup|commit|serve -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same workload with spans recorded around each call into a module
// and reports the per-layer metrics (see spec.go). The last line of
// standard output is one JSON object; the exit code is non-zero when any
// answer was wrong. Run it through run.sh, which builds it from the
// checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "lookup", "workload: lookup, commit or serve")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		root    = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		return 2
	}
	base := filepath.Join(*root, ".bench_build")
	dir, err := os.MkdirTemp(base, "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &runner{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := r.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.tr != nil {
		tdir := filepath.Join(base, "traces")
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(tdir, 0o755); err == nil {
			err = r.tr.writeJSONL(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Printf("trace: %d spans in %s\n", len(r.tr.snapshot()), path)
	}
	return r.report(*trace == 1)
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints every metric of the run's kind by name and unit, then
// the JSON result line.
func (r *runner) report(traced bool) int {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	ok := true
	for _, m := range specs {
		v, found := r.metrics[m.name]
		if !found || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
			ok = false
			continue
		}
		fmt.Printf("%-32s %14.4f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	if !traced {
		fmt.Printf("%-32s %14.4f %s\n", "failed_frac", float64(failed)/float64(max(attempted, 1)), "frac")
		// Diagnostics, not declared: the p99 tails, and the runtime
		// figures of the untraced run to hold the traced run's against.
		for _, d := range []string{"diag.query_p99_us", "diag.commit_p99_us", "runtime.gc_cycles_per_kop", "runtime.alloc_bytes_per_op"} {
			fmt.Printf("%-32s %14.4f %s\n", d, r.metrics[d], unitOf(d))
		}
	}
	line, err := json.Marshal(res)
	if err != nil || !ok {
		fmt.Fprintln(os.Stderr, "perfbench: incomplete result:", err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}
