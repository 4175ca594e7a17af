package roi

import (
	"bytes"
	"testing"

	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// featureFrameFor exports the detector's post-convolution feature frame
// for a cloud — the same derivation the fusion backend and hub use.
func featureFrameFor(t *testing.T, c *pointcloud.Cloud) *spod.FeatureFrame {
	t.Helper()
	f := spod.New(spod.DefaultConfig()).EncodeFeatureFrame(c, nil)
	if f.Sites() == 0 {
		t.Fatal("test cloud produced an empty feature frame")
	}
	// The ladder's boundary arithmetic relies on the closed-form size
	// matching the actual encoding (true for ground-anchored frames).
	if got := len(f.Encode()); got != f.EncodedSize() {
		t.Fatalf("EncodedSize %d != actual encoding %d bytes", f.EncodedSize(), got)
	}
	return f
}

// TestSelectFeatureRungLadder walks the full four-rung ladder with a
// source that carries both the cloud and its feature frame, pinning the
// exact budget boundaries between rungs.
func TestSelectFeatureRungLadder(t *testing.T) {
	c := budgetCloud(3000, 1)
	f := featureFrameFor(t, c)
	full, err := pointcloud.EncodeQuantized(c)
	if err != nil {
		t.Fatal(err)
	}
	frontBytes := pointcloud.EncodedSizeQuantized(Extract(c, CategoryFrontFOV).Len())
	// Smallest budget whose point capacity still reaches MinStridePoints:
	// one byte less and the stride rung is rejected in favour of features.
	strideFloor := pointcloud.EncodedSizeQuantized(MinStridePoints)
	if frontBytes <= strideFloor {
		t.Fatalf("front FOV (%d B) too small to exercise the stride/feature boundary (%d B)", frontBytes, strideFloor)
	}

	tests := []struct {
		name        string
		budget      int
		wantCat     Category
		wantDown    bool
		checkBudget bool
	}{
		{"uncapped", 0, CategoryFullFrame, false, false},
		{"exact full", len(full), CategoryFullFrame, false, true},
		{"front fits", frontBytes, CategoryFrontFOV, false, true},
		{"stride floor", strideFloor, CategoryFrontFOV, true, true},
		{"below stride floor", strideFloor - 1, CategoryFeature, true, true},
		{"feature exact fit", f.EncodedSize(), CategoryFeature, false, true},
		{"feature trimmed", f.EncodedSize() - 1, CategoryFeature, true, true},
		{"below feature header", spod.FeatureFrameSize(0, 0) - 1, CategoryFeature, true, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// The cloud-backed ladder only reaches the feature rung below
			// the stride floor; the exact-fit and trim boundaries around
			// the frame's own size sit above it, so exercise those through
			// a feature-only source, whose whole ladder is rung 4.
			if tc.wantCat == CategoryFeature && tc.budget >= strideFloor {
				sel, err := Select(Source{Features: f}, tc.budget)
				if err != nil {
					t.Fatal(err)
				}
				checkFeatureSelection(t, sel, f, tc.budget, tc.wantDown, tc.checkBudget)
				return
			}
			sel, err := Select(Source{Cloud: c, Features: f}, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Category != tc.wantCat || sel.Downsampled != tc.wantDown {
				t.Fatalf("got category %v downsampled %v, want %v/%v",
					sel.Category, sel.Downsampled, tc.wantCat, tc.wantDown)
			}
			if tc.checkBudget && len(sel.Payload) > tc.budget {
				t.Errorf("payload %d bytes exceeds budget %d", len(sel.Payload), tc.budget)
			}
			if sel.Category == CategoryFeature {
				checkFeatureSelection(t, sel, f, tc.budget, tc.wantDown, tc.checkBudget)
				return
			}
			dec, err := pointcloud.Decode(sel.Payload)
			if err != nil {
				t.Fatalf("selected payload does not decode: %v", err)
			}
			if dec.Len() != sel.Points {
				t.Errorf("payload carries %d points, Selection reports %d", dec.Len(), sel.Points)
			}
		})
	}
}

// checkFeatureSelection validates a feature-rung selection against the
// frame it was trimmed from: the payload decodes, byte accounting is
// exact, and the reported site count matches the wire.
func checkFeatureSelection(t *testing.T, sel Selection, f *spod.FeatureFrame, budget int, wantDown, checkBudget bool) {
	t.Helper()
	if sel.Category != CategoryFeature {
		t.Fatalf("got category %v, want %v", sel.Category, CategoryFeature)
	}
	if sel.Downsampled != wantDown {
		t.Errorf("got downsampled %v, want %v", sel.Downsampled, wantDown)
	}
	if checkBudget && len(sel.Payload) > budget {
		t.Errorf("payload %d bytes exceeds budget %d", len(sel.Payload), budget)
	}
	dec, err := spod.DecodeFeatureFrame(sel.Payload)
	if err != nil {
		t.Fatalf("selected feature payload does not decode: %v", err)
	}
	if dec.Sites() != sel.Points {
		t.Errorf("payload carries %d sites, Selection reports %d", dec.Sites(), sel.Points)
	}
	if dec.Sites() > f.Sites() || len(dec.Cols) > len(f.Cols) {
		t.Errorf("trimmed frame (%d cols / %d sites) larger than source (%d / %d)",
			len(dec.Cols), dec.Sites(), len(f.Cols), f.Sites())
	}
	if got, want := len(sel.Payload), spod.FeatureFrameSize(len(dec.Cols), dec.Sites()); got != want {
		t.Errorf("payload is %d bytes, closed form says %d", got, want)
	}
}

// TestSelectFeatureOnlySource covers the feature-backend sender: no cloud
// at all, every budget served from the feature rung.
func TestSelectFeatureOnlySource(t *testing.T) {
	c := budgetCloud(2000, 3)
	f := featureFrameFor(t, c)

	sel, err := Select(Source{Features: f}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Category != CategoryFeature || sel.Downsampled {
		t.Fatalf("uncapped feature-only selection: got category %v downsampled %v", sel.Category, sel.Downsampled)
	}
	if sel.Points != f.Sites() {
		t.Errorf("uncapped selection reports %d sites, frame has %d", sel.Points, f.Sites())
	}
	if !bytes.Equal(sel.Payload, f.Encode()) {
		t.Error("uncapped feature-only payload differs from the frame's own encoding")
	}

	viaSelectFeature, err := SelectFeature(Source{Features: f}, f.EncodedSize()/2)
	if err != nil {
		t.Fatal(err)
	}
	viaSelect, err := Select(Source{Features: f}, f.EncodedSize()/2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaSelectFeature.Payload, viaSelect.Payload) {
		t.Error("SelectFeature and cloudless Select disagree under the same budget")
	}
	checkFeatureSelection(t, viaSelectFeature, f, f.EncodedSize()/2, true, true)
}

// TestSelectNoSource pins the error contract for empty sources.
func TestSelectNoSource(t *testing.T) {
	if _, err := Select(Source{}, 100); err != ErrNoSource {
		t.Errorf("Select on empty source: got %v, want ErrNoSource", err)
	}
	if _, err := SelectFeature(Source{Cloud: budgetCloud(100, 4)}, 100); err != ErrNoSource {
		t.Errorf("SelectFeature without features: got %v, want ErrNoSource", err)
	}
}

// TestSelectDeriveLaziness verifies the Derive closure only runs when the
// ladder actually reaches the feature rung — deriving re-runs the
// detector's front half, so eager derivation would defeat the cache.
func TestSelectDeriveLaziness(t *testing.T) {
	c := budgetCloud(3000, 5)
	f := featureFrameFor(t, c)
	calls := 0
	src := Source{Cloud: c, Derive: func() *spod.FeatureFrame { calls++; return f }}

	if _, err := Select(src, 0); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("uncapped selection derived features %d times, want 0", calls)
	}

	sel, err := Select(src, pointcloud.EncodedSizeQuantized(MinStridePoints)-1)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("feature-rung selection derived features %d times, want 1", calls)
	}
	if sel.Category != CategoryFeature {
		t.Errorf("got category %v, want %v", sel.Category, CategoryFeature)
	}
}

// TestSelectFeatureDeterministic pins byte determinism of the trimmed
// feature rung across repeated selections.
func TestSelectFeatureDeterministic(t *testing.T) {
	c := budgetCloud(2000, 6)
	f := featureFrameFor(t, c)
	budget := f.EncodedSize() * 2 / 3
	a, err := SelectFeature(Source{Features: f}, budget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectFeature(Source{Features: featureFrameFor(t, c)}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		t.Error("trimmed feature selection is not deterministic")
	}
}
