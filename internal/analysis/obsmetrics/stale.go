package obsmetrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"fastforward/internal/analysis"
)

// Stale is the reverse of the analyzer's check: it returns, sorted, the
// names in the registry file that no non-test Go source in the module
// rooted at root registers. A name is registered when a
// Counter/Gauge/Histogram call passes it as a string literal, or passes a
// literal prefix of it concatenated with a dynamic suffix
// (`"relay.amp_bound." + b.String()`). The analyzer keeps code names ⊆
// registry ⊆ OBSERVABILITY.md; Stale catches the row left behind when a
// metric's registration is deleted. The walk is analysis.WalkGoFiles.
func Stale(root, registryFile string) ([]string, error) {
	reg := loadRegistry(registryFile)
	if reg.err != nil {
		return nil, reg.err
	}
	names, prefixes, err := registrations(root)
	if err != nil {
		return nil, err
	}
	var stale []string
	for name := range reg.names {
		if names[name] || hasPrefixOf(prefixes, name) {
			continue
		}
		stale = append(stale, name)
	}
	sort.Strings(stale)
	return stale, nil
}

// registrations collects the literal metric names and literal name
// prefixes that non-test sources under root pass to
// Counter/Gauge/Histogram. The scan is syntactic: in this module only
// obs.Registry has methods by those names.
func registrations(root string) (names, prefixes map[string]bool, err error) {
	names, prefixes = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err = analysis.WalkGoFiles(root, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !metricMethods[sel.Sel.Name] {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			if s, ok := stringLit(arg); ok {
				names[s] = true
			} else if bin, ok := arg.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
				if s, ok := stringLit(ast.Unparen(bin.X)); ok {
					prefixes[s] = true
				}
			}
			return true
		})
		return nil
	})
	return names, prefixes, err
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func hasPrefixOf(prefixes map[string]bool, name string) bool {
	for p := range prefixes {
		if p != "" && p != name && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
