// Package core implements the Cooper system: connected autonomous
// vehicles that sense the world with LiDAR, exchange raw point-cloud data
// packaged with GPS/IMU state (§II-D of the paper), align and merge the
// clouds (Eqs. 1–3), and run the SPOD detector on both single-shot and
// cooperative data. It also provides the scenario case runner that the
// evaluation harness uses to regenerate the paper's figures.
package core

import (
	"fmt"

	"cooper/internal/fusion"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// Vehicle is one connected autonomous vehicle: a LiDAR, a pose estimate
// (GPS + IMU) and an on-board SPOD detector.
type Vehicle struct {
	// ID names the vehicle in exchanges and reports.
	ID string

	state    fusion.VehicleState
	scanner  *lidar.Scanner
	detector *spod.Detector

	cloud *pointcloud.Cloud // the latest scan, nil before the first Sense
}

// NewVehicle creates a vehicle with the given LiDAR model and state. The
// seed fixes sensing noise. The detector is configured for the device's
// vertical FOV.
func NewVehicle(id string, cfg lidar.Config, state fusion.VehicleState, seed int64) *Vehicle {
	if state.MountHeight == 0 {
		state.MountHeight = cfg.MountHeight
	}
	dcfg := spod.DefaultConfig()
	dcfg.VerticalFOVTop = cfg.MaxElevation()
	return &Vehicle{
		ID:       id,
		state:    state,
		scanner:  lidar.NewScanner(cfg, seed),
		detector: spod.New(dcfg),
	}
}

// SetDetector replaces the vehicle's detector (for ablations).
func (v *Vehicle) SetDetector(d *spod.Detector) { v.detector = d }

// SetWorkers bounds the goroutines the vehicle's scanner uses to ray-cast
// a revolution (< 1 selects one per CPU). Scans are identical at any
// worker count; the knob only changes wall-clock time. Detection always
// runs on the caller's goroutine.
func (v *Vehicle) SetWorkers(n int) *Vehicle {
	v.scanner.SetWorkers(n)
	return v
}

// State returns the vehicle's current GPS/IMU state.
func (v *Vehicle) State() fusion.VehicleState { return v.state }

// Sense performs one LiDAR revolution against the given world geometry
// and stores the scan. The returned cloud is in the vehicle's sensor
// frame.
func (v *Vehicle) Sense(targets []lidar.Target, groundZ float64) *pointcloud.Cloud {
	v.cloud = v.scanner.ScanFrom(v.state.Pose(), targets, groundZ).Cloud
	return v.cloud
}

// Cloud returns the most recent scan (nil before the first Sense).
func (v *Vehicle) Cloud() *pointcloud.Cloud { return v.cloud }

// Detect runs SPOD on the vehicle's own latest scan — the paper's
// "single shot" perception — inside the caller's detector scratch (nil
// draws from the shared pool). Callers detecting in a loop, such as the
// hub selftest, hold one scratch per worker.
func (v *Vehicle) Detect(s *spod.DetectorScratch) ([]spod.Detection, spod.Stats, error) {
	if v.cloud == nil {
		return nil, spod.Stats{}, fmt.Errorf("vehicle %s: %w", v.ID, ErrNoScan)
	}
	dets, stats := v.detector.Detect(v.cloud, nil, s)
	return dets, stats, nil
}
