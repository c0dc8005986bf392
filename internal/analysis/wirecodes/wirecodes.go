// Package wirecodes pins the wire protocol's registry: REFUSE-code and
// frame-type literals must come from the protocol.go constants
// (relayd.Refuse*, relayd.Frame*), and the registry must cross-validate
// both ways against the OPERATIONS.md troubleshooting table and wire
// protocol section — the same discipline obsmetrics applies to
// METRICS.txt.
//
// In any package that declares or imports the registry:
//
//   - a string literal equal to a declared refuse-code value is a
//     finding ("budget" written where RefuseBudget belongs);
//   - an integer literal in byte context equal to a declared frame type
//     is a finding (3 written where FrameRefuse belongs).
//
// When analyzing the registry package itself, OPERATIONS.md (resolved
// against Pass.ModuleDir) is cross-validated:
//
//   - every declared refuse code must appear in a troubleshooting
//     "code `X`" phrase, and every documented "code `X`" must be
//     declared;
//   - every declared frame type must appear as NAME(value) in the wire
//     protocol section with the matching value, and every documented
//     NAME(value) must be declared.
package wirecodes

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"fastforward/internal/analysis"
)

// Config tunes the analyzer for tests; the zero value is the production
// configuration for this repository.
type Config struct {
	// RegistryPackages are import-path suffixes of the package declaring
	// the Refuse* and Frame* constants.
	RegistryPackages []string
}

var defaultRegistry = []string{"internal/relayd"}

// operationsFile is the runbook path relative to the module root.
const operationsFile = "OPERATIONS.md"

// New returns the wirecodes analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.RegistryPackages == nil {
		cfg.RegistryPackages = defaultRegistry
	}
	return &analysis.Analyzer{
		Name: "wirecodes",
		Doc:  "refuse-code and frame-type literals come from the protocol.go registry; the registry cross-validates against OPERATIONS.md",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// Default is the production-configured analyzer.
func Default() *analysis.Analyzer { return New(Config{}) }

// registry is the extracted protocol constant table.
type registry struct {
	codes  map[string]string // value -> constant name ("budget" -> "RefuseBudget")
	frames map[int64]string  // value -> constant name (3 -> "FrameRefuse")
}

func run(pass *analysis.Pass, cfg Config) {
	var regPkg *types.Package
	self := analysis.PathMatches(pass.Pkg.Path(), cfg.RegistryPackages)
	if self {
		regPkg = pass.Pkg
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if analysis.PathMatches(imp.Path(), cfg.RegistryPackages) {
				regPkg = imp
				break
			}
		}
	}
	if regPkg == nil {
		return
	}
	reg := extract(regPkg)
	if len(reg.codes) == 0 && len(reg.frames) == 0 {
		return
	}
	for _, f := range pass.Files {
		checkLiterals(pass, f, reg, self)
	}
	if self && pass.ModuleDir != "" {
		crossValidate(pass, reg)
	}
}

// extract pulls the Refuse* string and Frame* integer constants out of
// the registry package's scope.
func extract(pkg *types.Package) registry {
	reg := registry{codes: map[string]string{}, frames: map[int64]string{}}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(name, "Refuse") && c.Val().Kind() == constant.String:
			reg.codes[constant.StringVal(c.Val())] = name
		case strings.HasPrefix(name, "Frame") && c.Val().Kind() == constant.Int:
			if v, ok := constant.Int64Val(c.Val()); ok {
				reg.frames[v] = name
			}
		}
	}
	return reg
}

// checkLiterals flags raw literals that shadow registry constants. In
// the registry package itself, the declaring const specs are exempt.
func checkLiterals(pass *analysis.Pass, f *ast.File, reg registry, self bool) {
	var declSpans []ast.Node
	if self {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, n := range vs.Names {
					if strings.HasPrefix(n.Name, "Refuse") || strings.HasPrefix(n.Name, "Frame") {
						declSpans = append(declSpans, vs)
						break
					}
				}
			}
		}
	}
	inDecl := func(n ast.Node) bool {
		for _, s := range declSpans {
			if s.Pos() <= n.Pos() && n.End() <= s.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok {
			return true
		}
		switch lit.Kind {
		case token.STRING:
			v, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			name, isCode := reg.codes[v]
			if isCode && !inDecl(lit) {
				pass.Reportf(lit.Pos(), "refuse code literal %q: use the %s constant from the protocol registry", v, name)
			}
		case token.INT:
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok {
				return true
			}
			b, ok := tv.Type.Underlying().(*types.Basic)
			if !ok || (b.Kind() != types.Uint8 && b.Kind() != types.Byte) {
				return true
			}
			if tv.Value == nil || tv.Value.Kind() != constant.Int {
				return true
			}
			if v, exact := constant.Int64Val(tv.Value); exact {
				if name, isFrame := reg.frames[v]; isFrame && !inDecl(lit) {
					pass.Reportf(lit.Pos(), "frame-type literal %d: use the %s constant from the protocol registry", v, name)
				}
			}
		}
		return true
	})
}

// codePhraseRE matches the troubleshooting table's "code `X`" phrases.
var codePhraseRE = regexp.MustCompile("code `([a-z_]+)`")

// framePhraseRE matches the wire protocol section's NAME(value) frames.
var framePhraseRE = regexp.MustCompile(`([A-Z]{2,})\((\d+)`)

// crossValidate checks the registry against OPERATIONS.md both ways.
func crossValidate(pass *analysis.Pass, reg registry) {
	pos := pass.Files[0].Pos()
	path := filepath.Join(pass.ModuleDir, operationsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		pass.Reportf(pos, "cannot read %s to cross-validate the wire-code registry: %v", operationsFile, err)
		return
	}
	doc := string(data)

	// Declared codes must be documented in a troubleshooting phrase.
	documented := map[string]bool{}
	for _, m := range codePhraseRE.FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}
	for _, v := range sortedKeys(reg.codes) {
		if !documented[v] {
			pass.Reportf(pos, "refuse code %q (%s) missing from the %s troubleshooting table: add a \"code `%s`\" row", v, reg.codes[v], operationsFile, v)
		}
	}
	// Documented codes must be declared.
	for _, v := range sortedKeys(documented) {
		if _, ok := reg.codes[v]; !ok {
			pass.Reportf(pos, "%s documents refuse code %q that the protocol registry does not declare", operationsFile, v)
		}
	}

	// Frames: declared must appear as NAME(value); documented NAME(value)
	// must be declared with the same value.
	docFrames := map[string]int64{}
	for _, m := range framePhraseRE.FindAllStringSubmatch(doc, -1) {
		var v int64
		fmt.Sscanf(m[2], "%d", &v)
		docFrames[m[1]] = v
	}
	declFrames := map[string]int64{}
	for v, name := range reg.frames {
		declFrames[strings.ToUpper(strings.TrimPrefix(name, "Frame"))] = v
	}
	for _, name := range sortedKeys(declFrames) {
		v := declFrames[name]
		dv, ok := docFrames[name]
		switch {
		case !ok:
			pass.Reportf(pos, "frame type %s(%d) missing from the %s wire protocol section", name, v, operationsFile)
		case dv != v:
			pass.Reportf(pos, "%s documents frame %s(%d) but the protocol registry declares %s(%d)", operationsFile, name, dv, name, v)
		}
	}
	for _, name := range sortedKeys(docFrames) {
		if _, ok := declFrames[name]; !ok {
			pass.Reportf(pos, "%s documents frame %s(%d) that the protocol registry does not declare", operationsFile, name, docFrames[name])
		}
	}
}

// sortedKeys returns map keys sorted, for deterministic diagnostics.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
