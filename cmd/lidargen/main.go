// Command lidargen renders the synthetic evaluation datasets to disk in
// the KITTI Velodyne binary layout plus JSON labels.
//
//	lidargen -out ./data                            # all eight paper scenarios
//	lidargen -out ./data -dataset T&J
//	lidargen -out ./data -scenario highway -fleet 6 -seed 1
//	lidargen -out ./data -scenario platoon -fleet 4 -frames 20 -hz 10
//
// -scenario accepts a paper scenario name or a generated family
// (highway, intersection, roundabout, parking, platoon) parameterised by
// -fleet/-seed/-traffic, mirroring the other CLIs. With -frames > 1 the
// world is rendered as a dynamic episode: one file per (timestep, pose),
// timestep-major, each label carrying the capture time and the ground
// truth as it stood at that instant.
package main

import (
	"flag"
	"fmt"
	"os"

	"cooper/internal/dataset"
	"cooper/internal/scene"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lidargen:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "./data", "output directory")
	which := flag.String("dataset", "all", `dataset to render: "KITTI", "T&J" or "all"`)
	name := flag.String("scenario", "", "render one scenario: a paper name or a generated family")
	fleet := flag.Int("fleet", 4, "fleet size for generated families")
	seed := flag.Int64("seed", 1, "generation + sensing seed for generated families")
	traffic := flag.Int("traffic", 0, "ambient car count for generated families (0 = family default)")
	frames := flag.Int("frames", 1, "timesteps to render; > 1 writes a dynamic episode, one file per timestep and pose")
	hz := flag.Float64("hz", 10, "episode frame rate")
	flag.Parse()

	var scenarios []*scene.Scenario
	if *name != "" {
		sc, err := scene.Resolve(*name, *fleet, *seed, *traffic)
		if err != nil {
			return err
		}
		scenarios = []*scene.Scenario{sc}
	} else {
		switch *which {
		case "KITTI":
			scenarios = scene.KITTIScenarios()
		case "T&J":
			scenarios = scene.TJScenarios()
		case "all":
			scenarios = scene.AllScenarios()
		default:
			return fmt.Errorf("unknown dataset %q", *which)
		}
	}

	for _, sc := range scenarios {
		if err := dataset.GenerateEpisode(sc, *out, *frames, *hz); err != nil {
			return err
		}
		if *frames > 1 {
			fmt.Printf("rendered %-16s %d frames (%d timesteps × %d poses @ %g Hz, %d-beam)\n",
				sc.Name, *frames*len(sc.Poses), *frames, len(sc.Poses), *hz, sc.LiDAR.BeamCount())
		} else {
			fmt.Printf("rendered %-16s %d frames (%d-beam)\n", sc.Name, len(sc.Poses), sc.LiDAR.BeamCount())
		}
	}
	return nil
}
