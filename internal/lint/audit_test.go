package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAuditGolden pins the exact bytes `cooperlint -audit` renders for
// a fixture package with suppressed sites and one open finding.
func TestAuditGolden(t *testing.T) {
	pkg := loadTestdata(t, "audit")
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	got := RenderAudit(CollectAudit([]*Package{pkg}, cwd))

	golden := filepath.Join("testdata", "audit.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("audit table drifted from golden (run with -update to re-bless):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestAuditSplice pins the marker protocol: splicing a fresh table into
// a doc and extracting it again round-trips byte for byte.
func TestAuditSplice(t *testing.T) {
	doc := []byte("# Title\n\nprose\n\n" + AuditBegin + "\nstale\n" + AuditEnd + "\n\ntail\n")
	table := "fresh line one\nfresh line two\n"
	out, err := SpliceAudit(doc, table)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(AuditBegin+"\n"+table+AuditEnd)) {
		t.Errorf("splice result malformed:\n%s", out)
	}
	got, err := extractAudit(out)
	if err != nil {
		t.Fatal(err)
	}
	if got != table {
		t.Errorf("extract after splice = %q, want %q", got, table)
	}
	if _, err := SpliceAudit([]byte("no markers"), table); err == nil {
		t.Error("splice without markers should error")
	}
}

// TestRepoAuditInSync regenerates the audit table for the whole module
// and requires the committed DETERMINISM.md section to byte-match it —
// the local form of the CI drift gate.
func TestRepoAuditInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check in -short mode")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	sites := CollectAudit(pkgs, root)
	if f := Findings(sites); len(f) > 0 {
		t.Errorf("repository has %d open determinism findings:\n%s", len(f), siteList(f))
	}
	fresh := RenderAudit(sites)
	doc, err := os.ReadFile(filepath.Join(root, "docs", "DETERMINISM.md"))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := extractAudit(doc)
	if err != nil {
		t.Fatal(err)
	}
	if committed != fresh {
		t.Errorf("docs/DETERMINISM.md audit table drifted from the code; regenerate with\n  go run ./cmd/cooperlint -audit -doc docs/DETERMINISM.md -w\n--- committed ---\n%s\n--- fresh ---\n%s", committed, fresh)
	}
}

// TestVetToolProtocol builds the cooperlint binary and drives it
// through the real `go vet -vettool` protocol: a clean package passes,
// a package with an open finding fails with the analyzer's message.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet in -short mode")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "cooperlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/cooperlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cooperlint: %v\n%s", err, out)
	}

	// Clean package: this one.
	vet := exec.Command("go", "vet", "-vettool="+bin, "./internal/lint")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on clean package failed: %v\n%s", err, out)
	}

	// The per-package pass accepts //cooper:deadexport directives,
	// broken ones included: only the module pass judges them.
	vet = exec.Command("go", "vet", "-vettool="+bin, "./internal/lint/testdata/src/deadexport/lib")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on deadexport directives failed: %v\n%s", err, out)
	}

	// Seeded regression: the audit fixture's open map-order float sum.
	vet = exec.Command("go", "vet", "-vettool="+bin, "./internal/lint/testdata/src/audit")
	vet.Dir = root
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on seeded regression passed; output:\n%s", out)
	}
	if !strings.Contains(string(out), "maporder: float accumulation into total") {
		t.Errorf("vet output missing maporder diagnostic:\n%s", out)
	}
}

// extractAudit returns the generated section of a document — the bytes
// SpliceAudit would replace — for byte-comparison against a fresh
// render.
func extractAudit(doc []byte) (string, error) {
	begin := bytes.Index(doc, []byte(AuditBegin))
	end := bytes.Index(doc, []byte(AuditEnd))
	if begin < 0 || end < 0 || end < begin {
		return "", fmt.Errorf("document has no %s / %s markers", AuditBegin, AuditEnd)
	}
	return string(doc[begin+len(AuditBegin)+1 : end]), nil
}
