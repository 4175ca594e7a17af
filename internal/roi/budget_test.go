package roi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// budgetCloud builds a cloud with points all around the sensor so the
// front-FOV rung genuinely shrinks it.
func budgetCloud(n int, seed int64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := &pointcloud.Cloud{}
	for i := 0; i < n; i++ {
		az := rng.Float64()*2*math.Pi - math.Pi
		r := 2 + rng.Float64()*40
		c.AppendXYZR(r*math.Cos(az), r*math.Sin(az), rng.Float64()*2, rng.Float64())
	}
	return c
}

func TestSelectPayloadLadder(t *testing.T) {
	c := budgetCloud(3000, 1)
	full, err := pointcloud.EncodeQuantized(c)
	if err != nil {
		t.Fatal(err)
	}
	frontLen := Extract(c, CategoryFrontFOV).Len()
	frontBytes := pointcloud.EncodedSizeQuantized(frontLen)

	tests := []struct {
		name        string
		budget      int
		wantCat     Category
		wantDown    bool
		checkBudget bool
	}{
		{"uncapped", 0, CategoryFullFrame, false, false},
		{"negative is uncapped", -5, CategoryFullFrame, false, false},
		{"roomy", len(full) + 100, CategoryFullFrame, false, true},
		{"exact full", len(full), CategoryFullFrame, false, true},
		{"front fits", frontBytes + 10, CategoryFrontFOV, false, true},
		{"downsample", frontBytes / 2, CategoryFrontFOV, true, true},
		{"tiny", 10, CategoryFrontFOV, true, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := Select(Source{Cloud: c}, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Category != tc.wantCat || sel.Downsampled != tc.wantDown {
				t.Errorf("got category %v downsampled %v, want %v/%v",
					sel.Category, sel.Downsampled, tc.wantCat, tc.wantDown)
			}
			if tc.checkBudget && len(sel.Payload) > tc.budget {
				t.Errorf("payload %d bytes exceeds budget %d", len(sel.Payload), tc.budget)
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

func TestSelectPayloadDeterministic(t *testing.T) {
	c := budgetCloud(2000, 2)
	a, err := Select(Source{Cloud: c}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(Source{Cloud: c}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		t.Error("cloud-only Select is not deterministic")
	}
}

// TestLadderMatchesSelect reuses one Ladder across a budget sweep that
// crosses all four rungs, shrinking and then growing, and checks every
// selection against a fresh one-shot Select. The published-encoding
// shortcut is covered three ways: none given, a canonical encoding (which
// the full rung must serve as is) and a non-canonical one (which it must
// ignore in favour of the canonical re-encode).
func TestLadderMatchesSelect(t *testing.T) {
	c := budgetCloud(3000, 5)
	feat := featureFrameFor(t, c)
	full, err := pointcloud.EncodeQuantized(c)
	if err != nil {
		t.Fatal(err)
	}
	// A CPQ1 frame whose first record sits one cell off its origin
	// decodes fine but does not survive a re-encode.
	offCell := bytes.Clone(full)
	offCell[pointcloud.EncodedSizeQuantized(0)] = 1
	offCloud, err := pointcloud.Decode(offCell)
	if err != nil {
		t.Fatal(err)
	}

	frontBytes := pointcloud.EncodedSizeQuantized(Extract(c, CategoryFrontFOV).Len())
	strideFloor := pointcloud.EncodedSizeQuantized(MinStridePoints)
	var budgets []int
	for _, b := range []int{0, -1, len(full) + 1, len(full), len(full) - 1, frontBytes + 1, frontBytes, frontBytes - 1,
		strideFloor, strideFloor - 1, feat.EncodedSize(), feat.EncodedSize() - 1, 40, 1} {
		budgets = append(budgets, b)
	}
	for b := len(full) + 64; b > 0; b = b * 7 / 8 {
		budgets = append(budgets, b)
	}
	for i := len(budgets) - 1; i >= 0; i-- {
		budgets = append(budgets, budgets[i]) // and back up, on a warm memo
	}

	tests := []struct {
		name      string
		src       Source
		encodedOK bool // the full rung serves src.Encoded itself
	}{
		{"no encoding", Source{Cloud: c, Features: feat}, false},
		{"canonical encoding", Source{Cloud: c, Features: feat, Encoded: full}, true},
		{"non-canonical encoding", Source{Cloud: offCloud, Derive: func() *spod.FeatureFrame { return feat }, Encoded: offCell}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			l := Ladder{Source: tc.src}
			rungs := map[[2]int]bool{}
			for _, b := range budgets {
				got, err := l.Select(b)
				if err != nil {
					t.Fatal(err)
				}
				fresh := Source{Cloud: tc.src.Cloud, Features: tc.src.Features, Derive: tc.src.Derive}
				want, err := Select(fresh, b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Payload, want.Payload) || got.Category != want.Category ||
					got.Points != want.Points || got.Downsampled != want.Downsampled {
					t.Fatalf("budget %d: memoized %v/%d pts/%d B, fresh %v/%d pts/%d B", b,
						got.Category, got.Points, len(got.Payload), want.Category, want.Points, len(want.Payload))
				}
				if got.Category == CategoryFullFrame {
					shared := len(tc.src.Encoded) > 0 && &got.Payload[0] == &tc.src.Encoded[0]
					if shared != tc.encodedOK {
						t.Fatalf("budget %d: full rung reuses the given encoding = %v, want %v", b, shared, tc.encodedOK)
					}
				}
				down := 0
				if got.Downsampled {
					down = 1
				}
				rungs[[2]int{int(got.Category), down}] = true
			}
			for _, r := range [][2]int{{int(CategoryFullFrame), 0}, {int(CategoryFrontFOV), 0}, {int(CategoryFrontFOV), 1}, {int(CategoryFeature), 1}} {
				if !rungs[r] {
					t.Errorf("sweep never reached rung %v (downsampled %v)", Category(r[0]), r[1] == 1)
				}
			}
		})
	}
}
