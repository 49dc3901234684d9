//go:build ignore

// fields lists the knobs nothing turns: every exported non-struct field of a
// struct type named *Config or *Params that no non-test file outside the
// field's own package writes. A write is an assignment (op-assign, ++ and --
// included), a keyed composite-literal element, or taking the field's
// address. Only the root module is scanned, so the benchmark module's writes
// do not count. One "<package>:<Type>.<Field>" line per field, sorted, in
// scripts/census.allow's format: scripts/census.sh adds them to its list of
// names that need an allow line. A count of all the leaf fields, and of the
// written ones, goes to standard error.
//
// Usage (from the repository root): go run scripts/fields.go
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "oasis"

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the root module's packages once each, in import order,
// and hands everything else to the source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*pkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(l.dirs[path], 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, info: &types.Info{
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Uses:       map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// knobs returns the exported leaf fields of p's *Config and *Params structs,
// keyed by the field object.
func knobs(p *pkg) map[*types.Var]string {
	out := map[*types.Var]string{}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() {
				continue
			}
			if _, isStruct := f.Type().Underlying().(*types.Struct); isStruct {
				continue
			}
			out[f] = p.path + ":" + name + "." + f.Name()
		}
	}
	return out
}

// writes calls w with every field p's files write.
func writes(p *pkg, w func(*types.Var)) {
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s, ok := p.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
				w(s.Obj().(*types.Var))
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
						w(v)
					}
				}
			}
			return true
		})
	}
}

func main() {
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != "." && (base == "bench" || base == "scripts" || base == "testdata" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			l.dirs[filepath.ToSlash(filepath.Join(module, dir))] = dir
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fields:", err)
		os.Exit(1)
	}
	paths := make([]string, 0, len(l.dirs))
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	names := map[*types.Var]string{}
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fields:", err)
			os.Exit(1)
		}
		for f, name := range knobs(p) {
			names[f] = name
		}
	}
	written := map[*types.Var]bool{}
	for _, path := range paths {
		p := l.pkgs[path]
		writes(p, func(f *types.Var) {
			if _, ok := names[f]; ok && f.Pkg() != p.types {
				written[f] = true
			}
		})
	}

	var lines []string
	for f, name := range names {
		if !written[f] {
			lines = append(lines, name)
		}
	}
	sort.Strings(lines)
	for _, line := range lines {
		fmt.Println(line)
	}
	fmt.Fprintf(os.Stderr, "fields: %d leaf fields, %d written outside their package\n", len(names), len(written))
}
