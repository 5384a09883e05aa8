package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// deterministicScopes lists the module-relative directories whose code
// must be bit-for-bit reproducible from a seed: every package that takes
// part in producing the paper's figures. Subdirectories inherit the
// constraint.
var deterministicScopes = []string{
	"internal/des",
	"internal/ecommerce",
	"internal/core",
	"internal/experiment",
	"internal/stats",
	"internal/ctmc",
	"internal/journal",
	"internal/conformance",
	"internal/faults",
	"internal/fleet",
	"internal/health",
	"internal/sched",
	"internal/streamindex",
}

// bannedImports are entropy or wall-clock sources that must never be
// linked into simulation code. Randomness comes from internal/xrand
// streams, which are stable across platforms and Go releases.
var bannedImports = map[string]string{
	"math/rand":    "use internal/xrand streams seeded by the experiment",
	"math/rand/v2": "use internal/xrand streams seeded by the experiment",
	"crypto/rand":  "use internal/xrand streams seeded by the experiment",
}

// bannedCalls maps package path -> function name -> why it is banned in
// simulation code.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":       "simulated time must come from the DES clock, not the wall clock",
		"Since":     "simulated time must come from the DES clock, not the wall clock",
		"Until":     "simulated time must come from the DES clock, not the wall clock",
		"Sleep":     "simulation must advance via DES events, not real delays",
		"After":     "simulation must advance via DES events, not real timers",
		"Tick":      "simulation must advance via DES events, not real timers",
		"NewTicker": "simulation must advance via DES events, not real timers",
		"NewTimer":  "simulation must advance via DES events, not real timers",
		"AfterFunc": "simulation must advance via DES events, not real timers",
	},
	"os": {
		"Getpid":   "process identity is run-dependent entropy",
		"Getppid":  "process identity is run-dependent entropy",
		"Getuid":   "process identity is run-dependent entropy",
		"Hostname": "host identity is run-dependent entropy",
		"Getenv":   "environment lookups make results depend on ambient state",
		"Environ":  "environment lookups make results depend on ambient state",
	},
}

// DeterminismAnalyzer forbids wall-clock and ambient-entropy sources in
// the simulation and statistics packages, so that every results/
// artifact stays re-derivable from its seed.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time and ambient entropy in simulation packages",
	Run:  runDeterminism,
}

// inDeterministicScope reports whether the package is policed.
func inDeterministicScope(rel string) bool {
	for _, scope := range deterministicScopes {
		if rel == scope || strings.HasPrefix(rel, scope+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(p *Package) []Diagnostic {
	if !inDeterministicScope(p.Rel) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				diags = append(diags, p.diagf(spec.Pos(), "determinism",
					"import of %s in simulation package; %s", path, why))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			if why, ok := bannedCalls[pn.Imported().Path()][sel.Sel.Name]; ok {
				diags = append(diags, p.diagf(sel.Pos(), "determinism",
					"%s.%s in simulation package; %s", pn.Imported().Path(), sel.Sel.Name, why))
			}
			return true
		})
	}
	return diags
}
