// Package lint implements rejuvlint, the repository's static-analysis
// suite. It is built on the standard library only (go/ast, go/parser,
// go/token, go/types) and enforces the invariants the paper's evaluation
// depends on: simulation code must be deterministic (no wall-clock time,
// no ambient randomness), numerical code must not compare floats with
// ==/!=, errors must not be dropped silently, and nothing that feeds the
// results/ artifacts may depend on map iteration order.
//
// Two interprocedural rules enforce the runtime contracts on top of
// that: hotpath forbids allocation sites reachable from //lint:hotpath
// roots through a shared call graph, and lockguard checks "guarded by"
// field annotations against a per-function lock-state flow. All rules
// share one type-checked load and one call graph per invocation.
//
// A finding can be suppressed per line with a justification comment:
//
//	//lint:allow <rule> <reason>
//
// placed either at the end of the offending line or on the line directly
// above it; placed in a function's doc comment (or on its declaration
// line) it covers the whole function. The reason is mandatory; a
// malformed, unknown, or unused directive is itself reported (rule
// "lint") so suppressions cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding as file:line:col: rule: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Analyzer is one named rule. Per-package rules implement Run;
// whole-tree rules (which need the call graph) implement RunTree.
// Exactly one of the two should be set.
type Analyzer struct {
	// Name is the rule identifier used in output and in //lint:allow.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run reports every finding in one package, pre-suppression.
	Run func(p *Package) []Diagnostic
	// RunTree reports every finding across the whole tree,
	// pre-suppression.
	RunTree func(t *Tree) []Diagnostic
}

// Analyzers returns the full rule registry in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		FloatCmpAnalyzer,
		DroppedErrAnalyzer,
		MapIterAnalyzer,
		SeedFlowAnalyzer,
		DocCommentAnalyzer,
		HotpathAnalyzer,
		LockGuardAnalyzer,
	}
}

// Package is one parsed, type-checked package ready for analysis.
// Type-checking is best-effort: TypeErrors collects anything the checker
// reported, and analyzers skip expressions whose types are unknown rather
// than guessing.
type Package struct {
	// Path is the import path ("rejuv/internal/des").
	Path string
	// Rel is the module-relative directory ("internal/des", "" for root).
	Rel string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files holds the non-test source files.
	Files []*ast.File
	// Pkg and Info carry the (possibly partial) type information.
	Pkg  *types.Package
	Info *types.Info
	// TypeErrors holds type-checker errors, kept for -v diagnostics.
	TypeErrors []error
	// Importer resolves imports as the load did: module packages to the
	// loaded ones, the standard library through one shared importer, so
	// further files (tests) checked against it see the same objects.
	Importer types.ImporterFrom
}

// position resolves a token.Pos against the package's file set.
func (p *Package) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// diagf builds a Diagnostic for the given rule at pos.
func (p *Package) diagf(pos token.Pos, rule, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.position(pos), Rule: rule, Message: fmt.Sprintf(format, args...)}
}

// Analyze applies the given analyzers to every package of the tree,
// honors //lint:allow suppressions, validates the directives
// themselves, and returns all surviving findings sorted by position.
// Callers that also want call-graph statistics (cmd/rejuvlint -v) share
// the tree's artifacts.
func Analyze(t *Tree, analyzers []*Analyzer) []Diagnostic {
	selected := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	// Custom analyzer sets (tests) may include rules outside the default
	// registry; their directives are still well-formed.
	for name := range selected {
		known[name] = true
	}

	// One shared directive index across the whole tree: interprocedural
	// analyzers report sites in packages other than the one holding the
	// root annotation, and the suppression must sit next to the site.
	allows := newAllowIndex()
	var out []Diagnostic
	for _, p := range t.Pkgs {
		out = append(out, allows.collect(p, known)...)
	}

	emit := func(ds []Diagnostic) {
		for _, d := range ds {
			if allows.suppress(d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, p := range t.Pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				emit(a.Run(p))
			}
		}
	}
	for _, a := range analyzers {
		if a.RunTree != nil {
			emit(a.RunTree(t))
		}
	}

	// An allow for a selected rule that never fired is dead weight
	// (or a typo'd line) and must be removed.
	for _, dir := range allows.all {
		if !selected[dir.rule] || dir.used {
			continue
		}
		where := "on this or the next line"
		if dir.span {
			where = "in this function"
		}
		out = append(out, Diagnostic{
			Pos:  dir.pos,
			Rule: directiveRule,
			Message: fmt.Sprintf("unnecessary //lint:allow %s: no %s finding %s",
				dir.rule, dir.rule, where),
		})
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
