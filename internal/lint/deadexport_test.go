package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadExport runs the module pass over a fixture module: a facade
// package at its root, a library, a consumer library and a main
// package. Only the library's dead function and its broken
// suppressions may be findings.
func TestDeadExport(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "deadexport"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(".", "./testdata/src/deadexport/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 4 {
		t.Fatalf("loaded %d packages, want 4", len(pkgs))
	}
	sites := DeadExport(pkgs, root)

	want := []string{
		"lib/lib.go: deadexport: lib.Dead is exported but no production code references it",
		"lib/lib.go: deadexport: unused //cooper:deadexport suppression",
		"lib/lib.go: deadexport: //cooper:deadexport needs a reason",
		"lib/lib.go: deadexport: lib.NoReason is exported but no production code references it",
	}
	findings := Findings(sites)
	if len(findings) != len(want) {
		t.Errorf("got %d findings, want %d:\n%s", len(findings), len(want), siteList(findings))
	}
	for i, w := range want {
		if i >= len(findings) {
			break
		}
		f := findings[i]
		if got := f.Pos.Filename + ": " + f.Analyzer + ": " + f.Message; !strings.HasPrefix(got, w) {
			t.Errorf("finding %d = %q, want prefix %q", i, got, w)
		}
	}

	sup := suppressedOf(sites)
	if len(sup) != 1 || !strings.Contains(sup[0].Message, "lib.Kept") || sup[0].Reason != "kept for the example" {
		t.Errorf("suppressed sites:\n%s\nwant lib.Kept with reason %q", siteList(sup), "kept for the example")
	}
}

// TestRepoDeadExport is the local form of the CI deadexport gate: every
// exported name in the module is referenced by production code or
// carries a //cooper:deadexport reason.
func TestRepoDeadExport(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check in -short mode")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(root, "./...", "./_fusedbench")
	if err != nil {
		t.Fatal(err)
	}
	if f := Findings(DeadExport(pkgs, root)); len(f) > 0 {
		t.Errorf("%d exported names no production code references:\n%s", len(f), siteList(f))
	}
}
