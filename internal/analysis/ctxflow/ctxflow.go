// Package ctxflow enforces cooperative-cancellation plumbing on the
// serving tiers: any function in a scoped package whose static call
// closure reaches an evaluation kernel (core.MapInto, core.EvalTiles,
// the incr flush entry points) is a request path, and request paths
// must carry a context.
//
// Two rules:
//
//  1. A request-path function must accept a context.Context parameter
//     (or an *http.Request, whose Context() is the handler idiom) so
//     cancellation can flow through it. PR 4 threaded ctx through every
//     eval path by hand; this keeps new call chains honest.
//  2. context.Background() and context.TODO() are banned inside
//     request-path functions: minting a fresh root context severs the
//     caller's deadline and cancel signal exactly where it matters.
//     Background work that never reaches a kernel (heartbeats, drop
//     notifications) is out of scope by construction.
//
// Test files are exempt. Reachability is static-call reachability —
// dynamic dispatch does not propagate — so an interface seam on a
// request path relies on its concrete implementations being scoped too.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"tsvstress/internal/analysis"
)

// Target names one kernel entry point: a function or method called
// Name declared in a package whose import path ends with PkgSuffix.
type Target struct {
	PkgSuffix string
	Name      string
}

// Config scopes the analyzer.
type Config struct {
	// ScopeSuffixes are the package-path suffixes whose functions are
	// checked.
	ScopeSuffixes []string
	// Targets are the kernel entry points that make a caller a request
	// path.
	Targets []Target
}

// NewAnalyzer builds a ctxflow analyzer for the given scope. Standalone
// runs see cross-package chains; vettool mode checks each package's
// direct and in-package-transitive calls.
func NewAnalyzer(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "ctxflow",
		Doc:  "request paths (functions reaching core.MapInto/EvalTiles or incr flushes) must accept a context.Context and never mint context.Background/TODO",
		Run: func(pass *analysis.Pass) error {
			prog := &analysis.Program{
				Fset: pass.Fset,
				Packages: []*analysis.Package{{
					Path: pass.Pkg.Path(), Files: pass.Files, Pkg: pass.Pkg, TypesInfo: pass.TypesInfo,
				}},
			}
			return analyze(cfg, prog, pass.Report)
		},
		RunProgram: func(pass *analysis.ProgramPass) error {
			return analyze(cfg, pass.Program, pass.Report)
		},
	}
}

// Analyzer is ctxflow scoped to this repository's serving tiers and
// evaluation kernels.
var Analyzer = NewAnalyzer(Config{
	ScopeSuffixes: []string{"internal/serve", "internal/cluster", "internal/incr", "internal/gateway"},
	Targets: []Target{
		{PkgSuffix: "internal/core", Name: "MapInto"},
		{PkgSuffix: "internal/core", Name: "EvalTiles"},
		{PkgSuffix: "internal/incr", Name: "Flush"},
		{PkgSuffix: "internal/incr", Name: "FlushDegraded"},
	},
})

func analyze(cfg Config, prog *analysis.Program, report func(analysis.Diagnostic)) error {
	bodies := analysis.FuncBodies(prog)

	isTarget := func(fn *types.Func) (string, bool) {
		pkg := fn.Pkg()
		if pkg == nil {
			return "", false
		}
		for _, t := range cfg.Targets {
			if fn.Name() == t.Name && strings.HasSuffix(pkg.Path(), t.PkgSuffix) {
				short := t.PkgSuffix[strings.LastIndex(t.PkgSuffix, "/")+1:]
				return short + "." + t.Name, true
			}
		}
		return "", false
	}

	// reaches memoizes the first kernel each function's static closure
	// hits ("" = none). Function literals count as part of their
	// enclosing function: a handler that spawns or defers a closure
	// calling MapInto is still a request path.
	reaches := make(map[*types.Func]string)
	onStack := make(map[*types.Func]bool)
	var reach func(fn *types.Func) string
	reach = func(fn *types.Func) string {
		if got, ok := reaches[fn]; ok {
			return got
		}
		if onStack[fn] {
			return ""
		}
		decl, ok := bodies[fn]
		if !ok || decl.Body == nil {
			return ""
		}
		info := analysis.InfoFor(prog, fn)
		if info == nil {
			return ""
		}
		onStack[fn] = true
		found := ""
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if found != "" {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.StaticCallee(info, call)
			if callee == nil {
				return true
			}
			if name, ok := isTarget(callee); ok {
				found = name
				return false
			}
			if via := reach(callee); via != "" {
				found = via
				return false
			}
			return true
		})
		delete(onStack, fn)
		reaches[fn] = found
		return found
	}

	inScope := func(pkgPath string) bool {
		// Test variants ("pkg [pkg.test]") inherit their base path.
		base, _, _ := strings.Cut(pkgPath, " [")
		for _, s := range cfg.ScopeSuffixes {
			if strings.HasSuffix(base, s) {
				return true
			}
		}
		return false
	}

	for _, pkg := range prog.Packages {
		if !inScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			if analysis.IsTestFile(prog.Fset, file.Pos()) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				via := reach(fn)
				if via == "" {
					continue
				}
				if !acceptsContext(fn) {
					report(analysis.Diagnostic{
						Pos: fd.Name.Pos(),
						Message: "can reach " + via +
							" but accepts no context.Context (or *http.Request) to forward cancellation through",
					})
				}
				reportRootContexts(pkg.TypesInfo, fd, via, report)
			}
		}
	}
	return nil
}

// acceptsContext reports whether the function signature carries a
// context.Context or *http.Request parameter (receiver excluded — the
// context must flow per call, not per value).
func acceptsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if isContextType(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// reportRootContexts flags context.Background()/TODO() calls lexically
// inside a request-path function (closures included — they run on the
// same request).
func reportRootContexts(info *types.Info, fd *ast.FuncDecl, via string, report func(analysis.Diagnostic)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.StaticCallee(info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "context" {
			return true
		}
		if name := callee.Name(); name == "Background" || name == "TODO" {
			report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: "context." + name + "() inside a request path (reaches " + via +
					") severs the caller's deadline and cancellation; thread the incoming ctx instead",
			})
		}
		return true
	})
}
