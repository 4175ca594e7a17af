package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// tiny shrinks a workload to a three-vehicle fleet, one world and one
// pass over its ticks, so every workload's whole path runs in seconds.
func tiny(workers int, trace bool) options {
	return options{seed: 7, workers: workers, trace: trace, setups: 1, warmup: 1, minFrames: 1, fleet: 3, scenes: 1}
}

func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			out, err := run(w, tiny(2, true))
			if err != nil {
				t.Fatal(err)
			}
			if len(out.failures) > 0 || out.failed > 0 {
				t.Fatalf("%d failed frames: %v", out.failed, out.failures)
			}
			checkNames(t, "end_to_end", out.endToEnd(), spec.EndToEnd)
			layers := out.perLayer()
			checkNames(t, "per_layer", layers, spec.PerLayer)
			if got := out.result(); !got.Correct || got.Attempted == 0 || len(got.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced result: correct=%v attempted=%d metrics=%d", got.Correct, got.Attempted, len(got.Metrics))
			}

			other, frame := layers["frame.other_ms_p50"].Value, layers["trace.frame_ms_p50"].Value
			if frame <= 0 || other > 0.05*frame {
				t.Errorf("child spans leave %.3f ms of a %.3f ms frame untiled (> 5%%)", other, frame)
			}

			one, err := run(w, tiny(1, false))
			if err != nil {
				t.Fatal(err)
			}
			if one.plain.digest != out.plain.digest || out.traced.digest != out.plain.digest {
				t.Errorf("fused-detection digests differ: 1 worker %s, 2 workers %s, traced %s",
					one.plain.digest[:16], out.plain.digest[:16], out.traced.digest[:16])
			}
		})
	}
}

// checkNames asserts that a result carries exactly the metrics the spec
// names, each with the spec's unit.
func checkNames(t *testing.T, kind string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: result has %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
}
