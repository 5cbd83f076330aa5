package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// deterministicPkg reports whether a package belongs to the simulation
// core, where results must be a pure function of the configuration: any
// wall-clock or ambient-randomness read there breaks reproducibility.
func deterministicPkg(path string) bool {
	for _, sub := range []string{"internal/sim", "internal/code", "internal/core", "internal/optimize"} {
		if strings.Contains(path, sub) {
			return true
		}
	}
	return false
}

// pkgOf resolves a selector's base identifier to the imported package it
// names, or "" when the selector is not a package-qualified reference.
func pkgOf(p *Package, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// analyzerNowRand forbids wall-clock and ambient-randomness reads in the
// simulation core. Virtual time comes from the event loop and randomness
// from seeded fault plans; time.Now or math/rand there would make runs
// irreproducible.
var analyzerNowRand = &Analyzer{
	Name: "nowrand",
	Doc:  "no time.Now or math/rand in the deterministic simulation core",
	Run: func(p *Package) []Diagnostic {
		if !deterministicPkg(p.Path) {
			return nil
		}
		var out []Diagnostic
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch pkg := pkgOf(p, sel); {
				case pkg == "time" && sel.Sel.Name == "Now":
					out = append(out, Diagnostic{
						Pos:      p.Fset.Position(sel.Pos()),
						Analyzer: "nowrand",
						Message:  "time.Now in deterministic core; use the simulator's virtual clock",
					})
				case pkg == "math/rand" || pkg == "math/rand/v2":
					out = append(out, Diagnostic{
						Pos:      p.Fset.Position(sel.Pos()),
						Analyzer: "nowrand",
						Message:  fmt.Sprintf("%s.%s in deterministic core; use a seeded fault plan", pkg, sel.Sel.Name),
					})
				}
				return true
			})
		}
		return out
	},
}

// analyzerMapRange forbids map iteration order from reaching output. Go
// randomizes map order, so a report, table or JSON document that passes a
// map-range's key or value to an output call directly from the loop body
// differs run to run; the repository's idiom is collect-then-sort, which
// keeps the range variables out of output calls.
var analyzerMapRange = &Analyzer{
	Name: "maprange",
	Doc:  "no map-range key/value flowing into formatted output (order is randomized)",
	Run: func(p *Package) []Diagnostic {
		var out []Diagnostic
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.Info.Types[rs.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				tainted := rangeVars(p, rs)
				if len(tainted) == 0 {
					return true
				}
				ast.Inspect(rs.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					sink := outputSink(p, call)
					if sink == "" || !mentionsAny(p, call.Args, tainted) {
						return true
					}
					out = append(out, Diagnostic{
						Pos:      p.Fset.Position(call.Pos()),
						Analyzer: "maprange",
						Message:  "map iteration order flows into " + sink + "; collect keys and sort before emitting",
					})
					return true
				})
				return true
			})
		}
		return out
	},
}

// rangeVars returns the objects bound to a range statement's key and value.
func rangeVars(p *Package, rs *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if o := p.Info.Defs[id]; o != nil {
			out = append(out, o)
		} else if o := p.Info.Uses[id]; o != nil {
			out = append(out, o)
		}
	}
	return out
}

// mentionsAny reports whether any expression references one of the given
// objects.
func mentionsAny(p *Package, exprs []ast.Expr, objs []types.Object) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			o := p.Info.Uses[id]
			for _, want := range objs {
				if o == want {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// outputSink classifies a call as an output producer — a fmt or json call,
// or a write into a strings.Builder / bytes.Buffer — returning a short
// description, or "" for calls that cannot leak iteration order.
func outputSink(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch pkg := pkgOf(p, sel); pkg {
	case "fmt":
		return "fmt." + sel.Sel.Name
	case "encoding/json":
		return "json." + sel.Sel.Name
	}
	if !strings.HasPrefix(sel.Sel.Name, "Write") {
		return ""
	}
	t := p.Info.Types[sel.X].Type
	if t == nil {
		return ""
	}
	s := t.String()
	if strings.HasSuffix(s, "strings.Builder") || strings.HasSuffix(s, "bytes.Buffer") {
		return s[strings.LastIndex(s, "/")+1:] + "." + sel.Sel.Name
	}
	return ""
}

// fsMutators names the os-package calls that durably mutate the
// filesystem; routing them through a storage.FS is what makes journals and
// stores fault-injectable and crash-enumerable.
var fsMutators = map[string]bool{"WriteFile": true, "Rename": true, "Remove": true}

// analyzerFSSeam enforces the storage seam: outside internal/storage (the
// seam's one implementation site), durable filesystem mutation must go
// through an injected storage.FS, never the os package directly. A direct
// os.WriteFile in, say, the daemon would dodge both the fault layer and
// the crash-point enumerator — the write would be untestable for exactly
// the failures the storage layer exists to exercise.
var analyzerFSSeam = &Analyzer{
	Name: "fsseam",
	Doc:  "no direct os.WriteFile/Rename/Remove or (*os.File).Sync outside internal/storage",
	Run: func(p *Package) []Diagnostic {
		if strings.Contains(p.Path, "internal/storage") {
			return nil
		}
		var out []Diagnostic
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkgOf(p, sel) == "os" && fsMutators[sel.Sel.Name] {
					out = append(out, Diagnostic{
						Pos:      p.Fset.Position(sel.Pos()),
						Analyzer: "fsseam",
						Message:  "os." + sel.Sel.Name + " bypasses the storage seam; write through a storage.FS",
					})
					return true
				}
				if sel.Sel.Name == "Sync" {
					if t := p.Info.Types[sel.X].Type; t != nil && t.String() == "*os.File" {
						out = append(out, Diagnostic{
							Pos:      p.Fset.Position(sel.Pos()),
							Analyzer: "fsseam",
							Message:  "(*os.File).Sync bypasses the storage seam; sync through a storage.FS",
						})
					}
				}
				return true
			})
		}
		return out
	},
}

// ptrVerb matches the %p conversion, with any flags or width, in a format
// string.
var ptrVerb = regexp.MustCompile(`%[-+# 0-9.]*p`)

// fmtFormatters names the fmt functions whose first string argument is a
// format specification.
var fmtFormatters = map[string]bool{
	"Printf": true, "Sprintf": true, "Fprintf": true, "Errorf": true,
	"Appendf": true, "Fscanf": false, "Sscanf": false, "Scanf": false,
}

// analyzerPtrFmt forbids the %p verb in format strings: pointer values
// change across runs (and under ASLR), so any report embedding one is
// nondeterministic by construction.
var analyzerPtrFmt = &Analyzer{
	Name: "ptrfmt",
	Doc:  "no %p in format strings (pointer values are run-dependent)",
	Run: func(p *Package) []Diagnostic {
		var out []Diagnostic
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || pkgOf(p, sel) != "fmt" || !fmtFormatters[sel.Sel.Name] {
					return true
				}
				for _, arg := range call.Args {
					lit, ok := arg.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil || !ptrVerb.MatchString(s) {
						continue
					}
					out = append(out, Diagnostic{
						Pos:      p.Fset.Position(lit.Pos()),
						Analyzer: "ptrfmt",
						Message:  "%p in format string embeds a run-dependent pointer value",
					})
				}
				return true
			})
		}
		return out
	},
}
