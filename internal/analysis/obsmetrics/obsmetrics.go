// Package obsmetrics enforces the metric-name contract between code,
// registry, documentation, and the manifest validator. Every metric-name
// string passed to internal/obs Counter/Gauge/Histogram must appear in
// the checked-in registry (internal/obs/METRICS.txt); when the obs
// package itself is analyzed, the registry is additionally
// cross-validated against OBSERVABILITY.md (every registered name must
// be documented) and the Makefile's `manifestcheck -require` lists
// (every required name must be registered). A renamed metric therefore
// fails `make lint` immediately instead of surfacing later as a manifest
// diff in `make manifest-smoke` — or worse, as a silently weakened
// -require assertion.
//
// Dynamic names built from a literal prefix (`"relay.amp_bound." +
// b.String()`) are checked by prefix: at least one registered name must
// extend the literal part. Names with no literal prefix at all are
// unverifiable and flagged; route them through a registered prefix or
// allowlist the site with a reason.
package obsmetrics

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"fastforward/internal/analysis"
)

// Config locates the registry and its cross-validation sources, all
// relative to the module root of the package under analysis. Zero-value
// fields take the production defaults.
type Config struct {
	RegistryFile      string // default internal/obs/METRICS.txt
	ObservabilityFile string // default OBSERVABILITY.md
	MakefileFile      string // default Makefile
}

// obsSuffixes identify the metrics package: method calls on its Registry
// type are checked, and analyzing the package itself triggers registry
// cross-validation.
var obsSuffixes = []string{"obs"}

// metricMethods are the Registry constructors whose first argument is a
// metric name. Stage timers are deliberately out of scope: timings are
// wall-clock diagnostics, not part of the deterministic metrics contract.
var metricMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// New returns the obsmetrics analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.RegistryFile == "" {
		cfg.RegistryFile = filepath.Join("internal", "obs", "METRICS.txt")
	}
	if cfg.ObservabilityFile == "" {
		cfg.ObservabilityFile = "OBSERVABILITY.md"
	}
	if cfg.MakefileFile == "" {
		cfg.MakefileFile = "Makefile"
	}
	registries := map[string]*registry{}
	return &analysis.Analyzer{
		Name: "obsmetrics",
		Doc:  "require obs metric names to appear in the checked-in registry, cross-validated against OBSERVABILITY.md and the Makefile -require lists",
		Run: func(pass *analysis.Pass) error {
			return run(pass, cfg, registries)
		},
	}
}

// Default is the production-configured analyzer.
func Default() *analysis.Analyzer { return New(Config{}) }

type registry struct {
	names map[string]bool
	err   error
}

func loadRegistry(path string) *registry {
	data, err := os.ReadFile(path)
	if err != nil {
		return &registry{err: err}
	}
	r := &registry{names: map[string]bool{}}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r.names[line] = true
	}
	return r
}

func (r *registry) has(name string) bool { return r.names[name] }

func (r *registry) hasPrefix(prefix string) bool {
	for n := range r.names {
		if strings.HasPrefix(n, prefix) && n != prefix {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass, cfg Config, registries map[string]*registry) error {
	if pass.ModuleDir == "" {
		return fmt.Errorf("obsmetrics needs Pass.ModuleDir to locate %s", cfg.RegistryFile)
	}
	reg, ok := registries[pass.ModuleDir]
	if !ok {
		reg = loadRegistry(filepath.Join(pass.ModuleDir, cfg.RegistryFile))
		registries[pass.ModuleDir] = reg
	}

	usesObs := analysis.PathMatches(pass.Pkg.Path(), obsSuffixes)
	for _, imp := range pass.Pkg.Imports() {
		if analysis.PathMatches(imp.Path(), obsSuffixes) {
			usesObs = true
		}
	}
	if !usesObs {
		return nil
	}
	if reg.err != nil {
		pass.Reportf(pass.Files[0].Name.Pos(), "metric registry unavailable: %v", reg.err)
		return nil
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if method := registryMethod(pass, call); method != "" && len(call.Args) > 0 {
				checkName(pass, call.Args[0], method, reg)
			}
			return true
		})
	}

	if analysis.PathMatches(pass.Pkg.Path(), obsSuffixes) {
		crossValidate(pass, cfg, reg)
	}
	return nil
}

// registryMethod returns the metric-constructor name when call is
// (*obs.Registry).Counter/Gauge/Histogram, else "".
func registryMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	fn, recv := analysis.Method(pass, call)
	if fn == nil || !metricMethods[fn.Name()] || recv.Obj().Name() != "Registry" ||
		!analysis.PathMatches(recv.Obj().Pkg().Path(), obsSuffixes) {
		return ""
	}
	return fn.Name()
}

func checkName(pass *analysis.Pass, arg ast.Expr, method string, reg *registry) {
	arg = ast.Unparen(arg)
	// Constant-foldable names (literals, consts, literal concatenations)
	// are checked exactly.
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		name := stringConstant(tv)
		if name == "" {
			return
		}
		if !reg.has(name) {
			pass.Reportf(arg.Pos(), "metric %q passed to %s is not in the metric registry (internal/obs/METRICS.txt); register and document it in OBSERVABILITY.md", name, method)
		}
		return
	}
	// Dynamic name: require a registered extension of the literal prefix.
	if bin, ok := arg.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		if tv, ok := pass.TypesInfo.Types[bin.X]; ok && tv.Value != nil {
			prefix := stringConstant(tv)
			if prefix != "" {
				if !reg.hasPrefix(prefix) {
					pass.Reportf(arg.Pos(), "no registered metric extends the dynamic prefix %q passed to %s; register the concrete names", prefix, method)
				}
				return
			}
		}
	}
	pass.Reportf(arg.Pos(), "metric name passed to %s is not a checkable literal; use a registered literal (or prefix + dynamic suffix), or annotate //fflint:allow obsmetrics <reason>", method)
}

// metricNameRE is what a documented metric name looks like inside
// OBSERVABILITY.md backticks: dotted lowercase segments.
var metricNameRE = regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+)+)`")

// requireRE pulls the comma-joined lists out of `manifestcheck -require a,b`.
var requireRE = regexp.MustCompile(`-require\s+([A-Za-z0-9_.,]+)`)

// crossValidate holds the registry to its two external contracts.
func crossValidate(pass *analysis.Pass, cfg Config, reg *registry) {
	at := pass.Files[0].Name.Pos()

	docPath := filepath.Join(pass.ModuleDir, cfg.ObservabilityFile)
	doc, docErr := os.ReadFile(docPath)
	if docErr != nil {
		pass.Reportf(at, "cannot cross-validate metric registry: %v", docErr)
	} else {
		documented := map[string]bool{}
		for _, m := range metricNameRE.FindAllStringSubmatch(string(doc), -1) {
			documented[m[1]] = true
		}
		for _, name := range sortedNames(reg) {
			if !documented[name] {
				pass.Reportf(at, "registered metric %q is not documented in %s", name, cfg.ObservabilityFile)
			}
		}
	}

	mkPath := filepath.Join(pass.ModuleDir, cfg.MakefileFile)
	mk, mkErr := os.ReadFile(mkPath)
	if mkErr != nil {
		pass.Reportf(at, "cannot cross-validate metric registry: %v", mkErr)
		return
	}
	for _, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue // prose in Makefile comments can mention -require
		}
		for _, m := range requireRE.FindAllStringSubmatch(line, -1) {
			for _, name := range strings.Split(m[1], ",") {
				if name != "" && !reg.has(name) {
					pass.Reportf(at, "Makefile requires manifest metric %q that is not in the metric registry", name)
				}
			}
		}
	}
}

func sortedNames(reg *registry) []string {
	names := make([]string, 0, len(reg.names))
	for n := range reg.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stringConstant returns the string value of a constant-valued
// expression, or "" when the constant is not a string.
func stringConstant(tv types.TypeAndValue) string {
	unq, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return ""
	}
	return unq
}
