package geom

import (
	"math"
	"testing"
)

// TestIoUEdgeCases is the table-driven sweep over the degenerate and
// boundary geometries the evaluation matcher can feed the IoU kernels:
// zero-area boxes, exactly-touching boxes, full containment and
// near-parallel rotations. Every result must be finite, in [0, 1] and
// equal to the analytic value within tolerance.
func TestIoUEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		a, b    Box
		wantBEV float64
		want3D  float64
		tol     float64
	}{
		{
			name:    "zero-length box vs normal box",
			a:       NewBox(V3(0, 0, 1), 0, 1.6, 1.56, 0),
			b:       NewBox(V3(0, 0, 1), 3.9, 1.6, 1.56, 0),
			wantBEV: 0, want3D: 0, tol: 0,
		},
		{
			name:    "zero-width box vs normal box",
			a:       NewBox(V3(0.5, 0, 1), 3.9, 0, 1.56, 0.3),
			b:       NewBox(V3(0, 0, 1), 3.9, 1.6, 1.56, 0.3),
			wantBEV: 0, want3D: 0, tol: 0,
		},
		{
			name:    "two zero-area boxes at the same spot",
			a:       NewBox(V3(1, 2, 1), 0, 0, 1.5, 0),
			b:       NewBox(V3(1, 2, 1), 0, 0, 1.5, 0.4),
			wantBEV: 0, want3D: 0, tol: 0,
		},
		{
			name:    "zero-height box vs normal box",
			a:       NewBox(V3(0, 0, 1), 4, 2, 0, 0),
			b:       NewBox(V3(0, 0, 1), 4, 2, 1.5, 0),
			wantBEV: 1, want3D: 0, tol: 1e-9,
		},
		{
			name: "exactly touching along an edge",
			a:    NewBox(V3(0, 0, 0.78), 3.9, 1.6, 1.56, 0),
			b:    NewBox(V3(3.9, 0, 0.78), 3.9, 1.6, 1.56, 0),
			// Shared boundary has measure zero: not an overlap.
			wantBEV: 0, want3D: 0, tol: 1e-9,
		},
		{
			name:    "exactly touching at a corner",
			a:       NewBox(V3(0, 0, 1), 2, 2, 2, 0),
			b:       NewBox(V3(2, 2, 1), 2, 2, 2, 0),
			wantBEV: 0, want3D: 0, tol: 1e-9,
		},
		{
			name: "exactly stacked: touching in z only",
			a:    NewBox(V3(0, 0, 0.75), 4, 2, 1.5, 0),
			b:    NewBox(V3(0, 0, 2.25), 4, 2, 1.5, 0),
			// Same footprint, abutting vertically: BEV sees full overlap,
			// 3D sees none.
			wantBEV: 1, want3D: 0, tol: 1e-9,
		},
		{
			name: "fully contained, axis aligned",
			a:    NewBox(V3(1, 0.5, 1), 2, 1, 2, 0),
			b:    NewBox(V3(0, 0, 1), 10, 10, 2, 0),
			// Intersection = small box: IoU = 2/(100+2-2) = 0.02.
			wantBEV: 0.02, want3D: 0.02, tol: 1e-9,
		},
		{
			name: "fully contained, rotated inner box",
			a:    NewBox(V3(0, 0, 1), 2, 1, 2, math.Pi/5),
			b:    NewBox(V3(0, 0, 1), 12, 12, 2, 0),
			// A rotated inner box is still wholly inside: IoU =
			// 2/(144+2-2).
			wantBEV: 2.0 / 144.0, want3D: 2.0 / 144.0, tol: 1e-9,
		},
		{
			name: "rotated near-parallel: one-microradian twist",
			a:    NewBox(V3(0, 0, 0.78), 3.9, 1.6, 1.56, 0),
			b:    NewBox(V3(0, 0, 0.78), 3.9, 1.6, 1.56, 1e-6),
			// The clipped polygon is within float noise of the full box.
			wantBEV: 1, want3D: 1, tol: 1e-5,
		},
		{
			name: "rotated near-parallel: opposite heading",
			a:    NewBox(V3(0, 0, 0.78), 3.9, 1.6, 1.56, 0.3),
			b:    NewBox(V3(0, 0, 0.78), 3.9, 1.6, 1.56, 0.3+math.Pi),
			// A 180° flip is geometrically the same footprint.
			wantBEV: 1, want3D: 1, tol: 1e-9,
		},
		{
			name:    "disjoint boxes",
			a:       NewBox(V3(0, 0, 1), 2, 2, 2, 0.2),
			b:       NewBox(V3(50, 50, 1), 2, 2, 2, 1.1),
			wantBEV: 0, want3D: 0, tol: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, dir := range []struct {
				name string
				a, b Box
			}{{"a,b", tc.a, tc.b}, {"b,a", tc.b, tc.a}} {
				bev := IoUBEV(dir.a, dir.b)
				v3d := iou3D(dir.a, dir.b)
				for _, got := range []float64{bev, v3d} {
					if math.IsNaN(got) || math.IsInf(got, 0) {
						t.Fatalf("%s: non-finite IoU %v", dir.name, got)
					}
					if got < 0 || got > 1 {
						t.Fatalf("%s: IoU %v out of [0,1]", dir.name, got)
					}
				}
				if math.Abs(bev-tc.wantBEV) > tc.tol {
					t.Errorf("%s: IoUBEV = %v, want %v ± %v", dir.name, bev, tc.wantBEV, tc.tol)
				}
				if math.Abs(v3d-tc.want3D) > tc.tol {
					t.Errorf("%s: IoU3D = %v, want %v ± %v", dir.name, v3d, tc.want3D, tc.tol)
				}
			}
		})
	}
}
