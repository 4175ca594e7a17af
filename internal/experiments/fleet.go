package experiments

import (
	"fmt"
	"io"

	"cooper/internal/eval"
	"cooper/internal/network"
	"cooper/internal/parallel"
	"cooper/internal/scene"
)

// FleetSweepConfig parameterizes the fleet-scale sweep: which generated
// scenario families to run, at which fleet sizes, under which seed.
type FleetSweepConfig struct {
	// Families lists the generated families to sweep.
	Families []scene.Family
	// Fleets lists the fleet sizes evaluated per family.
	Fleets []int
	// Seed drives scenario generation and sensing noise.
	Seed int64
	// Traffic overrides the per-family ambient car count when > 0.
	Traffic int
}

// DefaultFleetSweep sweeps every family across fleets of 2–8 vehicles
// at seed 1 — the Fig. 14 configuration.
func DefaultFleetSweep() FleetSweepConfig {
	return FleetSweepConfig{
		Families: scene.BaseFamilies(),
		Fleets:   []int{2, 4, 6, 8},
		Seed:     1,
	}
}

// fleetRow is one sweep entry's rendered report line.
type fleetRow struct {
	line string
}

// FleetSweep runs the sweep against the suite's caches (so repeated
// figure runs share evaluations) and writes one row per (family, fleet)
// pair: detection precision/recall of the receiver alone versus the
// N-way fusion, and the DSRC cost of the case's broadcast round. Rows
// are computed concurrently under the suite's worker budget and emitted
// in sweep order; output is identical at any worker count.
func FleetSweep(s *Suite, w io.Writer, cfg FleetSweepConfig) error {
	type entry struct {
		family scene.Family
		fleet  int
	}
	var entries []entry
	for _, f := range cfg.Families {
		for _, n := range cfg.Fleets {
			entries = append(entries, entry{f, n})
		}
	}

	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()

	sched := network.DefaultScheduler()
	rows, err := parallel.MapErr(workers, len(entries), func(i int) (fleetRow, error) {
		e := entries[i]
		sc, err := s.Generated(scene.GenParams{Family: e.family, Fleet: e.fleet, Seed: cfg.Seed, Traffic: cfg.Traffic})
		if err != nil {
			return fleetRow{}, err
		}
		outcomes, err := s.Outcomes(sc)
		if err != nil {
			return fleetRow{}, err
		}
		if len(outcomes) == 0 {
			// A single-vehicle fleet has no cooperative case: nothing is
			// exchanged and the channel carries nothing.
			line := fmt.Sprintf("  %-13s %5d %5d %8s %8s %9s %9s %10d %11.1f %10.2f %5.0f%% %6v",
				e.family, e.fleet, len(sc.Scene.Cars()),
				"-", "-", "-", "-", 0, 0.0, 0.0, 0.0, true)
			return fleetRow{line: line}, nil
		}
		o := outcomes[0]
		single := o.Column(0)
		coop := o.Column(2)
		plan := sched.Plan(o.SenderPayloads)
		line := fmt.Sprintf("  %-13s %5d %5d %8.0f %8.0f %9.0f %9.0f %10d %11.1f %10.2f %5.0f%% %6v",
			e.family, e.fleet, len(sc.Scene.Cars()),
			100*eval.Recall(single), 100*eval.Recall(coop),
			100*eval.Precision(eval.CountDetected(single), o.FPI),
			100*eval.Precision(eval.CountDetected(coop), o.FPCoop),
			o.PayloadBytes/1024,
			float64(plan.Completion().Microseconds())/1000,
			plan.MbitPerSecond(), 100*plan.Utilization(), plan.Fits())
		return fleetRow{line: line}, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Fig. 14 — fleet-scale N-way fusion: detection quality and DSRC channel load vs fleet size")
	fmt.Fprintf(w, "  (generated scenarios, seed %d; pose v1 fuses K = fleet-1 transmitted clouds; %g Hz broadcast rounds on a %.0f Mbit/s channel)\n",
		cfg.Seed, sched.RateHz, sched.Channel.DataRateMbps)
	fmt.Fprintf(w, "  %-13s %5s %5s %8s %8s %9s %9s %10s %11s %10s %6s %6s\n",
		"family", "fleet", "cars", "rec-v1%", "rec-N%", "prec-v1%", "prec-N%", "payload-KB", "latency-ms", "load-Mbps", "util%", "fits")
	for _, r := range rows {
		fmt.Fprintln(w, r.line)
	}
	fmt.Fprintln(w, "  (latency is the modeled channel-completion time of one broadcast round, not wall clock)")
	return nil
}

// FigFleet is the registry generator for the default sweep.
func FigFleet(s *Suite, w io.Writer) error {
	return FleetSweep(s, w, DefaultFleetSweep())
}
