// Package lint is Cooper's determinism lint suite: static analyzers
// that mechanically enforce the coding rules in docs/DETERMINISM.md —
// the rules that keep every figure, selftest transcript, metrics
// snapshot and episode log byte-identical across runs and -workers
// values.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) on the standard library only, so the
// analyzers port unchanged if the repo ever vendors x/tools. Four
// analyzers ship today:
//
//   - maporder: map iteration whose body can reach an output
//   - wallclock: time.Now/Since/Sleep/Tick outside sim-time
//   - randsource: global math/rand draws (unseeded randomness)
//   - floatfold: float accumulation into captured state inside
//     parallel regions
//
// Beside them, DeadExport is a module pass rather than an analyzer: it
// reports exported names no production code references (see
// deadexport.go), and its //cooper:deadexport suppressions follow the
// same rules.
//
// A diagnostic is silenced — and turned into a machine-readable audit
// entry — by a suppression comment on the flagged line or the line
// above it:
//
//	//cooper:maporder candidates are sorted before any output-visible use
//
// The text after the analyzer name is the mandatory reason; it becomes
// the site's row in the generated DETERMINISM.md audit table. Unused
// suppressions are themselves diagnostics, so stale annotations cannot
// survive a refactor.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one determinism rule checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //cooper:<name> suppression comments.
	Name string
	// Doc is a one-paragraph description of the rule it enforces.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records a diagnostic found by the analyzer.
	Report func(Diagnostic)
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzers is the full determinism suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, RandSource, FloatFold}
}

// A Site is one audited location: either an open finding (Suppressed
// false) or an intentional, annotated one (Suppressed true, Reason
// carrying the //cooper: comment text). Sites are what the -audit mode
// turns into the DETERMINISM.md table.
type Site struct {
	Analyzer string
	// Pos is the resolved source position (absolute file path).
	Pos token.Position
	// Message is the analyzer's diagnostic text.
	Message string
	// Suppressed reports whether a //cooper:<analyzer> comment covers
	// the site.
	Suppressed bool
	// Reason is the suppression comment's explanation (empty for open
	// findings).
	Reason string
}

// String renders the site the way a vet diagnostic prints.
func (s Site) String() string {
	status := ""
	if s.Suppressed {
		status = " (suppressed: " + s.Reason + ")"
	}
	return fmt.Sprintf("%s: %s: %s%s", s.Pos, s.Analyzer, s.Message, status)
}

// suppressionPrefix introduces a suppression/audit comment.
const suppressionPrefix = "//cooper:"

// A suppression is one parsed //cooper:<analyzer> <reason> comment. It
// covers its own line and the next line, so it works both as a trailing
// comment and as a whole-line comment above the flagged statement.
type suppression struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// parseSuppressions extracts the //cooper: directives a pass judges
// from a file. known maps every directive name to whether this pass
// judges it: a name known but not judged here (deadexport in the
// per-package run, the analyzers in the module pass) is skipped, and
// the pass that owns it reports it. Malformed directives (unknown
// name, missing reason) are reported as sites so they cannot silently
// do nothing.
func parseSuppressions(fset *token.FileSet, file *ast.File, known map[string]bool, bad *[]Site) []*suppression {
	var out []*suppression
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, suppressionPrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, suppressionPrefix)
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			judged, ok := known[name]
			if !ok {
				*bad = append(*bad, Site{
					Analyzer: "cooper",
					Pos:      pos,
					Message:  fmt.Sprintf("unknown //cooper:%s directive (analyzers: %s)", name, strings.Join(sortedKeys(known), ", ")),
				})
				continue
			}
			if !judged {
				continue
			}
			if reason == "" {
				*bad = append(*bad, Site{
					Analyzer: name,
					Pos:      pos,
					Message:  fmt.Sprintf("//cooper:%s needs a reason: it is the audit-table entry for this site", name),
				})
				continue
			}
			out = append(out, &suppression{analyzer: name, reason: reason, pos: pos})
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		//cooper:maporder analyzer names are sorted immediately after collection
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
}

// isTestFile reports whether the position's file is a _test.go file —
// test code is exempt from every determinism rule.
func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

// Run applies the analyzers to one package and resolves suppression
// comments, returning every site in (file, line, analyzer) order.
// Open findings, suppressed findings, unused suppressions and malformed
// directives are all sites; callers decide what fails the build.
func Run(pkg *Package, analyzers []*Analyzer) []Site {
	known := map[string]bool{deadExportName: false}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var sites []Site
	var sups []*suppression
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if isTestFile(name) {
			continue
		}
		sups = append(sups, parseSuppressions(pkg.Fset, f, known, &sites)...)
	}

	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			sites = append(sites, Site{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer error: %v", err),
			})
			continue
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if isTestFile(pos.Filename) {
				continue
			}
			site := Site{Analyzer: a.Name, Pos: pos, Message: d.Message}
			if s := coveringSuppression(sups, a.Name, pos); s != nil {
				s.used = true
				site.Suppressed = true
				site.Reason = s.reason
			}
			sites = append(sites, site)
		}
	}

	sites = append(sites, unusedSuppressions(sups)...)

	// Merge duplicate diagnostics a single line can trigger (e.g. two
	// accumulations in one statement) so audit rows stay one-per-site.
	sort.SliceStable(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Pos.Column < b.Pos.Column
	})
	dedup := sites[:0]
	for _, s := range sites {
		if n := len(dedup); n > 0 {
			p := dedup[n-1]
			if p.Pos.Filename == s.Pos.Filename && p.Pos.Line == s.Pos.Line &&
				p.Analyzer == s.Analyzer && p.Suppressed == s.Suppressed {
				continue
			}
		}
		dedup = append(dedup, s)
	}
	return dedup
}

// coveringSuppression returns the suppression covering (file, line)
// for an analyzer: the directive on the same line or the line above.
func coveringSuppression(sups []*suppression, analyzer string, pos token.Position) *suppression {
	for _, s := range sups {
		if s.analyzer != analyzer || s.pos.Filename != pos.Filename {
			continue
		}
		if s.pos.Line == pos.Line || s.pos.Line == pos.Line-1 {
			return s
		}
	}
	return nil
}

// unusedSuppressions reports every suppression no diagnostic used.
func unusedSuppressions(sups []*suppression) []Site {
	var out []Site
	for _, s := range sups {
		if !s.used {
			out = append(out, Site{
				Analyzer: s.analyzer,
				Pos:      s.pos,
				Message:  fmt.Sprintf("unused //cooper:%s suppression: no %s diagnostic on this or the next line", s.analyzer, s.analyzer),
			})
		}
	}
	return out
}

// Findings filters sites down to the ones that should fail a build:
// open diagnostics, malformed directives and unused suppressions —
// everything that is not a properly annotated intentional site.
func Findings(sites []Site) []Site {
	var out []Site
	for _, s := range sites {
		if !s.Suppressed {
			out = append(out, s)
		}
	}
	return out
}

// ---- shared AST helpers used by the analyzers ----

// rootIdent unwraps parens, stars, selectors and index expressions to
// the base identifier an lvalue writes through: s.total -> s,
// (*p).x[i] -> p. Returns nil when the base is not an identifier
// (e.g. a function call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether the identifier's object is declared
// outside the given node's span — i.e. the loop body or closure writes
// to state that outlives it.
func declaredOutside(info *types.Info, id *ast.Ident, node ast.Node) bool {
	obj := info.ObjectOf(id)
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() < node.Pos() || obj.Pos() >= node.End()
}

// typeHasInfo reports whether the expression's basic type carries the
// given info bits (IsFloat, IsString, ...).
func typeHasInfo(info *types.Info, e ast.Expr, bits types.BasicInfo) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&bits != 0
}

// funcOf resolves a call/selector expression to the *types.Func it
// refers to, looking through parentheses. Returns nil for non-function
// or unresolved expressions.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	e = ast.Unparen(e)
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package a function belongs
// to ("" for builtins and method receivers without packages).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
