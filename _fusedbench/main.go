// Command fusedbench measures Cooper's hub-served fused-frame path, end
// to end and layer by layer. It generates a workload's inputs from the
// seed (every LiDAR capture is ray-cast before any clock starts), drives
// a closed loop of two ego clients against a live hub for the given
// number of seconds, checks the outputs, and prints one JSON result as
// the last line of standard output:
//
//	bash _fusedbench/run.sh --workload budget-roi --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same loop
// again with spans recorded at every layer boundary and reports the
// per-layer breakdown. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	o := defaultOptions()
	name := flag.String("workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", o.seed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "timed loop length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusedbench:", err)
		os.Exit(2)
	}
	out, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusedbench:", err)
		os.Exit(1)
	}
	res := out.result()
	printTable(res.Metrics)
	fmt.Fprintln(os.Stderr, "fusedbench: untraced loop:", out.plain.timingNote())
	if out.traced != nil {
		fmt.Fprintln(os.Stderr, "fusedbench: traced loop:", out.traced.timingNote())
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "fusedbench: FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's one-line JSON verdict.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// result reports the end-to-end metrics, or the per-layer breakdown
// when the invocation traced.
func (o *runOutcome) result() result {
	m := o.endToEnd()
	if o.traced != nil {
		m = o.perLayer()
	}
	return result{Correct: len(o.failures) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// printTable writes the metrics, one per line, to standard error.
func printTable(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
