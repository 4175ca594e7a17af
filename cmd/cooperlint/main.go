// Command cooperlint runs Cooper's determinism lint suite
// (internal/lint): maporder, wallclock, randsource and floatfold — the
// machine-checked form of the rules in docs/DETERMINISM.md — plus the
// module-wide deadexport check.
//
// It runs four ways:
//
//	cooperlint ./...                # standalone: lint packages, exit 1 on findings
//	cooperlint -audit               # print the DETERMINISM.md audit table
//	cooperlint -deadexport          # exported names no production code references
//	go vet -vettool=$(which cooperlint) ./...   # as a vet tool
//
// The vettool mode speaks the go vet unit-checker protocol: the go
// command invokes the binary once per package with a JSON config file
// argument carrying the file list and the export data of every
// dependency, and expects -V=full / -flags handshakes. No part of the
// protocol needs anything outside the standard library.
//
// Audit mode regenerates the generated section of docs/DETERMINISM.md:
//
//	cooperlint -audit                          # table only, to stdout
//	cooperlint -audit -doc docs/DETERMINISM.md # whole doc, table spliced in
//	cooperlint -audit -doc docs/DETERMINISM.md -w  # rewrite the doc in place
//
// CI diffs the committed table against a fresh -audit run, so the audit
// can never drift from the code.
//
// Deadexport mode loads ./... and ./_fusedbench (the benchmark, which
// ./... skips, is a consumer only) from the module root and exits 1 on
// every exported name no production package references. A name is dead
// only when the whole module says so, which the per-package vet protocol
// cannot see, so the vet tool accepts //cooper:deadexport directives
// and leaves them to this mode.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cooper/internal/lint"
)

// selfHash digests the running executable so the go vet result cache
// turns over with every rebuild of the tool.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func main() {
	versionFlag := flag.String("V", "", "if 'full', print version and exit (go vet tool-ID handshake)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (go vet handshake)")
	jsonFlag := flag.Bool("json", false, "accepted for go vet compatibility (ignored)")
	auditFlag := flag.Bool("audit", false, "collect every flagged-or-suppressed site and print the audit table")
	docFlag := flag.String("doc", "", "with -audit: splice the table between the cooperlint:audit markers of this document")
	writeFlag := flag.Bool("w", false, "with -audit -doc: rewrite the document in place instead of printing")
	deadFlag := flag.Bool("deadexport", false, "report exported names no production code references (loads ./... and ./_fusedbench)")
	flag.Parse()
	_ = *jsonFlag

	switch {
	case *versionFlag != "":
		// go vet identifies a -vettool by running it with -V=full and
		// caching on the reply, which must be "<name> version <ver> ...".
		// Folding the binary's own hash in invalidates that cache
		// whenever an analyzer changes.
		name := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
		fmt.Printf("%s version v1.0.0 buildID=%s\n", name, selfHash())
	case *flagsFlag:
		// go vet asks the tool which analyzer flags it supports.
		fmt.Println("[]")
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		os.Exit(runUnit(flag.Arg(0)))
	case *auditFlag:
		os.Exit(runAudit(*docFlag, *writeFlag, flag.Args()))
	case *deadFlag:
		os.Exit(runDeadExport())
	default:
		os.Exit(runStandalone(flag.Args()))
	}
}

// runStandalone lints the given package patterns (default ./... from
// the module root) and reports their findings.
func runStandalone(patterns []string) int {
	root, pkgs, err := loadModule(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cooperlint:", err)
		return 1
	}
	return reportFindings(lint.CollectAudit(pkgs, root))
}

// runDeadExport reports the exported names no production package
// references.
func runDeadExport() int {
	root, pkgs, err := loadModule("./...", "./_fusedbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cooperlint:", err)
		return 1
	}
	return reportFindings(lint.DeadExport(pkgs, root))
}

// loadModule loads the package patterns (default ./...) from the module
// root.
func loadModule(patterns ...string) (string, []*lint.Package, error) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		return "", nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(root, patterns...)
	return root, pkgs, err
}

// reportFindings prints every site that fails the build — open
// diagnostics, unused suppressions and malformed directives — and
// returns the exit code. Suppressed sites are silent: they are audit
// rows, not findings.
func reportFindings(sites []lint.Site) int {
	findings := lint.Findings(sites)
	for _, s := range findings {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", s.Pos.Filename, s.Pos.Line, s.Pos.Column, s.Analyzer, s.Message)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runAudit regenerates the audit table (and optionally the document
// that embeds it).
func runAudit(doc string, write bool, patterns []string) int {
	root, pkgs, err := loadModule(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cooperlint:", err)
		return 1
	}
	table := lint.RenderAudit(lint.CollectAudit(pkgs, root))
	if doc == "" {
		fmt.Print(table)
		return 0
	}
	path := doc
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, doc)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cooperlint:", err)
		return 1
	}
	out, err := lint.SpliceAudit(old, table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cooperlint: %s: %v\n", doc, err)
		return 1
	}
	if write {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cooperlint:", err)
			return 1
		}
		return 0
	}
	os.Stdout.Write(out)
	return 0
}
