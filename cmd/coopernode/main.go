// Command coopernode runs Cooper over a real network transport. The
// fleet hub serves many concurrent vehicles: it caches every vehicle's
// latest frame and assembles K-sender fusion rounds on demand, fitting
// payloads under an advertised bandwidth cap:
//
//	coopernode -hub 127.0.0.1:7777
//	coopernode -join 127.0.0.1:7777 -scenario platoon -fleet 4 -seed 7 -pose 1
//	coopernode -join 127.0.0.1:7777 -scenario platoon -fleet 4 -seed 7 -pose 0 -bw 2.0
//
// The paper's 1:1 exchange is the two-vehicle case: one vehicle
// publishes, the other requests a round of one sender:
//
//	coopernode -hub 127.0.0.1:7777
//	coopernode -join 127.0.0.1:7777 -scenario "TJ-Scenario 1" -pose 1
//	coopernode -join 127.0.0.1:7777 -scenario "TJ-Scenario 1" -pose 0 -k 1
//
// -selftest K spins the whole thing — hub plus K clients — inside one
// process from a generated scenario and prints a deterministic fused
// precision/recall and modelled round-latency report:
//
//	coopernode -selftest 4 -seed 7
//
// The selftest can be degraded: -loss R drops published frames on the
// hub ingress at a seeded rate (receivers fall back to each sender's
// newest cached frame, flagged stale in the report), and -drift M walks
// every vehicle's reported pose off truth by up to M metres:
//
//	coopernode -selftest 3 -seed 5 -frames 4 -loss 0.4 -drift 0.6
//
// Both the hub and the selftest can expose the observability surface:
// -http ADDR serves live stats, Prometheus metrics, pprof and episode
// replay over HTTP; -store PATH records a replayable episode log
// (selftest) or names the episode directory served at /episodes (hub);
// -linger D keeps the selftest's hub and API up after the report:
//
//	coopernode -selftest 3 -seed 5 -http 127.0.0.1:8777 -store /tmp/run.ceplog -linger 30s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cooper/internal/core"
	"cooper/internal/fusion"
	"cooper/internal/hub"
	"cooper/internal/network"
	"cooper/internal/scene"
	"cooper/internal/store"
	"cooper/internal/telemetry"
)

// defaultScenario is the -scenario flag default, the paper's 1:1 demo
// scenario.
const defaultScenario = "TJ-Scenario 1"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coopernode:", err)
		os.Exit(1)
	}
}

func run() error {
	hubAddr := flag.String("hub", "", "hub mode: address to run the fleet hub on")
	join := flag.String("join", "", "client mode: address of a fleet hub to join")
	selftest := flag.Int("selftest", 0, "run an in-process hub with K clients and print a deterministic report")
	scenarioName := flag.String("scenario", defaultScenario, "scenario name or generated family")
	pose := flag.Int("pose", 0, "pose index this node embodies")
	fleet := flag.Int("fleet", 4, "fleet size for generated families (and -selftest)")
	seed := flag.Int64("seed", 1, "generation + sensing seed for generated families")
	traffic := flag.Int("traffic", 0, "ambient car count for generated families (0 = family default)")
	bw := flag.Float64("bw", 0, "advertised bandwidth cap, Mbit/s (0 = uncapped)")
	k := flag.Int("k", 0, "max senders per fusion round (0 = hub default / whole fleet)")
	workers := flag.Int("workers", 0, "selftest client fan-out goroutines (0 = one per CPU); output identical at any value")
	frames := flag.Int("frames", 1, "selftest: stream this many frames of the moving world through the hub")
	hz := flag.Float64("hz", 2, "selftest streaming frame rate")
	backendName := flag.String("backend", "raw", "fusion backend for -selftest and -join: raw (point clouds) or feature (F-Cooper sparse planes)")
	wire := flag.String("wire", "v2", "publish wire for -selftest and -join: v2 (self-contained quantized frames) or v3 (CPD1 delta stream)")
	loss := flag.Float64("loss", 0, "selftest: publish loss rate in [0,1) — seeded drops on the hub ingress")
	drift := flag.Float64("drift", 0, "selftest: per-vehicle pose-walk bound in metres on every reported state")
	httpAddr := flag.String("http", "", "serve the stats/replay API on this address (selftest and hub modes)")
	storePath := flag.String("store", "", "selftest: record a replayable episode log to this file; hub: episode directory served at /episodes")
	linger := flag.Duration("linger", 0, "selftest: keep the hub (and -http API) alive this long after the report")
	flag.Parse()

	backend, err := fusion.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	switch *wire {
	case "v2", "v3":
	default:
		return fmt.Errorf("unknown wire %q (want v2 or v3)", *wire)
	}

	switch {
	case *selftest > 0:
		family, err := familyOf(*scenarioName)
		if err != nil {
			return err
		}
		if *loss < 0 || *loss >= 1 {
			return fmt.Errorf("-loss %g out of range [0,1)", *loss)
		}
		opts := hub.SelfTestOptions{
			Family:        family,
			Fleet:         *selftest,
			Seed:          *seed,
			Traffic:       *traffic,
			Workers:       *workers,
			BandwidthMbps: *bw,
			MaxSenders:    *k,
			Frames:        *frames,
			Hz:            *hz,
			Backend:       backend,
			Wire:          *wire,
			Drift:         *drift,
			Metrics:       telemetry.New(),
			HTTPAddr:      *httpAddr,
			Linger:        *linger,
		}
		if *loss > 0 {
			opts.Loss = network.DefaultLoss(*loss, *seed)
		}
		if *storePath != "" {
			headerFamily := family
			if headerFamily == "" {
				headerFamily = string(scene.FamilyPlatoon) // hub.SelfTest's default
			}
			ew, err := store.CreateEpisode(*storePath, store.Header{
				Label: "selftest", Scenario: headerFamily, Seed: *seed,
				Frames: *frames, Hz: *hz, Backend: backend.Name(), Wire: *wire,
			})
			if err != nil {
				return err
			}
			opts.Store = ew
			if err := hub.SelfTest(os.Stdout, opts); err != nil {
				ew.Close()
				return err
			}
			if err := ew.Close(); err != nil {
				return err
			}
			fmt.Printf("episode log: %s (%d records)\n", *storePath, ew.Records())
			return nil
		}
		return hub.SelfTest(os.Stdout, opts)
	case *hubAddr != "":
		return runHub(*hubAddr, *httpAddr, *storePath)
	case *join != "":
		sc, err := scene.Resolve(*scenarioName, *fleet, *seed, *traffic)
		if err != nil {
			return err
		}
		v, err := makeVehicle(sc, *pose)
		if err != nil {
			return err
		}
		return joinHub(v, sc, *join, *k, *bw, backend, *wire)
	default:
		return fmt.Errorf("specify one of -hub, -join or -selftest K")
	}
}

// familyOf resolves the -scenario flag for selftest mode, which only
// accepts generated families. The untouched flag default falls through
// to the selftest's own default family; anything else unknown is an
// error, not a silent fallback.
func familyOf(name string) (string, error) {
	if _, ok := scene.ParseFamily(name); ok {
		return name, nil
	}
	if name == defaultScenario {
		return "", nil // hub.SelfTest defaults to platoon
	}
	return "", fmt.Errorf("-selftest needs a generated family (%v), got %q", scene.Families(), name)
}

func makeVehicle(sc *scene.Scenario, pose int) (*core.Vehicle, error) {
	if pose < 0 || pose >= len(sc.Poses) {
		return nil, fmt.Errorf("pose %d out of range (scenario has %d)", pose, len(sc.Poses))
	}
	v := core.PoseVehicle(sc, pose)
	v.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)
	return v, nil
}

// runHub serves the fleet hub until interrupted, with the stats API and
// episode-replay surface attached when configured.
func runHub(addr, httpAddr, storeDir string) error {
	l, err := network.Listen(addr)
	if err != nil {
		return err
	}
	cfg := hub.Config{
		Logf: func(format string, args ...any) {
			fmt.Printf("hub: "+format+"\n", args...)
		},
		Metrics:  telemetry.New(),
		HTTPAddr: httpAddr,
	}
	if storeDir != "" {
		d, err := store.OpenDir(storeDir)
		if err != nil {
			return err
		}
		cfg.Episodes = d
	}
	h := hub.New(cfg)
	if _, err := h.StartHTTP(); err != nil {
		l.Close()
		return err
	}
	fmt.Printf("fleet hub listening on %s\n", l.Addr())
	return h.Serve(l)
}

// joinHub runs one vehicle's hub session: publish the sensed frame
// through the chosen fusion backend, then request a fusion round and
// detect on the fused input.
func joinHub(v *core.Vehicle, sc *scene.Scenario, addr string, k int, bwMbps float64, backend fusion.Backend, wire string) error {
	feature := backend.Name() == "feature"
	if wire == "v3" && feature {
		return fmt.Errorf("-wire v3 delta-codes point-cloud frames; the feature backend publishes CPF3")
	}
	cl, peers, err := hub.Connect(addr, v.ID, v.State())
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("%s joined hub at %s (%d vehicle(s) already cached)\n", v.ID, addr, peers)

	sensorFrame, err := v.SensorFrame(nil)
	if err != nil {
		return err
	}
	var cached, sent int
	switch {
	case wire == "v3":
		// The node's first publish opens a CPD1 stream (a keyframe); a
		// long-lived node would keep the session and delta-code follow-ups.
		cached, sent, err = cl.PublishDelta(v.State(), sensorFrame.Cloud)
	case feature:
		var p fusion.Payload
		p, err = backend.Encode(sensorFrame, nil)
		if err == nil {
			sent = len(p.Data)
			cached, err = cl.PublishFeatures(v.State(), p.Data)
		}
	default:
		var p fusion.Payload
		p, err = backend.Encode(sensorFrame, nil)
		if err == nil {
			sent = len(p.Data)
			cached, err = cl.Publish(v.State(), p.Data)
		}
	}
	if err != nil {
		return err
	}
	label := backend.Name()
	if wire == "v3" {
		label += " (v3 delta stream)"
	}
	fmt.Printf("published %d KB %s frame; hub now caches %d vehicle(s)\n", sent/1024, label, cached)

	var frames []hub.RoundFrame
	if feature {
		frames, err = cl.RequestFeatureRound(v.State(), k, uint64(bwMbps*1e6))
	} else {
		frames, err = cl.RequestRound(v.State(), k, uint64(bwMbps*1e6))
	}
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		fmt.Println("no peers cached yet — join more vehicles, then request again")
		return nil
	}

	senders := make([]string, len(frames))
	payloads := make([]fusion.Payload, len(frames))
	sizes := make([]int, len(frames))
	total := 0
	for i, f := range frames {
		senders[i] = f.Sender
		payloads[i] = fusion.Payload{SenderID: f.Sender, State: f.State, Data: f.Payload}
		sizes[i] = len(f.Payload)
		total += len(f.Payload)
	}
	plan := network.DefaultScheduler().Plan(sizes)
	fmt.Printf("fusion round: %d frame(s) from %s, %d KB, modelled latency %v (load %.2f Mbit/s, fits %v)\n",
		len(frames), strings.Join(senders, "+"), total/1024,
		plan.Completion().Round(1e5), plan.MbitPerSecond(), plan.Fits())

	singles, _, err := v.Detect(nil)
	if err != nil {
		return err
	}
	in, err := backend.Fuse(sensorFrame, payloads)
	if err != nil {
		return err
	}
	coop, _ := in.Detect(sensorFrame.Detector.Config(), nil)
	fmt.Printf("single shot: %d cars; cooperative: %d cars\n", len(singles), len(coop))
	for _, d := range coop {
		fmt.Printf("  car at (%6.1f, %6.1f) score %.2f\n", d.Box.Center.X, d.Box.Center.Y, d.Score)
	}
	return nil
}
