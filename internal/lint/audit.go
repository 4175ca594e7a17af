package lint

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Audit-section markers in docs/DETERMINISM.md. Everything between them
// is machine-generated; CI diffs the committed bytes against a fresh
// `cooperlint -audit` run so the table can never drift from the code.
const (
	AuditBegin = "<!-- cooperlint:audit:begin -->"
	AuditEnd   = "<!-- cooperlint:audit:end -->"
)

// CollectAudit runs the full analyzer suite over the packages and
// returns every site (open and suppressed) in stable order with file
// paths rewritten relative to root.
func CollectAudit(pkgs []*Package, root string) []Site {
	var sites []Site
	for _, pkg := range pkgs {
		sites = append(sites, Run(pkg, Analyzers())...)
	}
	return relSorted(sites, root)
}

// relSorted rewrites site file paths under root relative to it and
// stably sorts the sites by (file, line, analyzer).
func relSorted(sites []Site, root string) []Site {
	for i := range sites {
		if rel, err := filepath.Rel(root, sites[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			sites[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.SliceStable(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return sites
}

// RenderAudit renders the audit table exactly as it appears between the
// markers in docs/DETERMINISM.md. Suppressed sites list their
// annotation reason; open findings render as FLAGGED rows so a dirty
// tree shows up in the CI diff even before the vet gate fails.
func RenderAudit(sites []Site) string {
	var b strings.Builder
	open := 0
	for _, s := range sites {
		if !s.Suppressed {
			open++
		}
	}
	fmt.Fprintf(&b, "Generated by `cooperlint -audit` — do not edit by hand; regenerate with\n")
	fmt.Fprintf(&b, "`go run ./cmd/cooperlint -audit -doc docs/DETERMINISM.md -w`.\n")
	fmt.Fprintf(&b, "%d intentional sites, %d open findings.\n\n", len(sites)-open, open)
	b.WriteString("| Site | Analyzer | Reason |\n|---|---|---|\n")
	for _, s := range sites {
		reason := s.Reason
		if !s.Suppressed {
			reason = "**FLAGGED** — " + s.Message
		}
		fmt.Fprintf(&b, "| `%s:%d` | %s | %s |\n", s.Pos.Filename, s.Pos.Line, s.Analyzer, escapeCell(reason))
	}
	return b.String()
}

// escapeCell keeps annotation text from breaking the table layout.
func escapeCell(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

// SpliceAudit replaces the generated section of a document (everything
// between the AuditBegin and AuditEnd markers, exclusive) with the
// rendered table.
func SpliceAudit(doc []byte, table string) ([]byte, error) {
	begin := bytes.Index(doc, []byte(AuditBegin))
	end := bytes.Index(doc, []byte(AuditEnd))
	if begin < 0 || end < 0 || end < begin {
		return nil, fmt.Errorf("document has no %s / %s markers", AuditBegin, AuditEnd)
	}
	var out bytes.Buffer
	out.Write(doc[:begin+len(AuditBegin)])
	out.WriteString("\n")
	out.WriteString(table)
	out.Write(doc[end:])
	return out.Bytes(), nil
}

// ModuleRoot resolves the directory of the enclosing module's go.mod
// via the go command, from the given working directory.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		return "", fmt.Errorf("not inside a module (go env GOMOD is %q)", gomod)
	}
	return filepath.Dir(gomod), nil
}
