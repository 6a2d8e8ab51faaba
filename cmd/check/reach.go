package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/cli"
)

// reachAllow lists the unlinked functions a test in another package needs
// (an _test.go file serves only its own package), each naming that test.
var reachAllow = map[string]string{
	"repro/internal/core.Engine.Platform":   "internal/fluid TestIncrementalSolverEquivalence",
	"repro/internal/platform.Platform.Pool": "internal/fluid TestIncrementalSolverEquivalence",
	"repro/internal/telemetry.JobTrackKey":  "elastisim TestChromeTraceCoversRun",
}

// funcDecl is a declared function keyed "pkg/path.Func" or "pkg/path.Type.Method".
type funcDecl struct{ key, pos string }

func runReach(args []string) error {
	if len(args) != 0 {
		return cli.Usagef("reach takes no arguments")
	}
	out, err := exec.Command("go", "list", "-f", "{{.Name}}\t{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...").Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	var mains []string
	var decls []funcDecl
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t") // name, import path, dir, files...
		lib := strings.HasSuffix(f[1], "/elastisim")
		switch {
		case f[0] == "main":
			mains = append(mains, f[1])
			continue
		case !lib && !strings.Contains(f[1], "/internal/"):
			continue
		}
		for _, name := range f[3:] {
			file, err := parser.ParseFile(fset, filepath.Join(f[2], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				key, exported := f[1]+".", fn.Name.IsExported()
				if fn.Recv != nil { // "*Store[P]" → "Store"
					recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
					key, exported = key+recv+".", exported && ast.IsExported(recv)
				}
				if !lib || !exported { // elastisim's exported API is the library surface
					decls = append(decls, funcDecl{key + fn.Name.Name, fset.Position(fn.Pos()).String()})
				}
			}
		}
	}

	tmp, err := os.MkdirTemp("", "check-reach-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}, mains...)...)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("go build: %w", err)
	}
	linked := map[string]bool{}
	for _, m := range mains {
		syms, err := exec.Command("go", "tool", "nm", filepath.Join(tmp, filepath.Base(m))).Output()
		if err != nil {
			return fmt.Errorf("go tool nm %s: %w", m, err)
		}
		for _, line := range strings.Split(string(syms), "\n") {
			// "  addr T name": a generic shape in the name may hold spaces.
			if f := strings.SplitN(strings.TrimSpace(line), " ", 3); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				if key, ok := symbolKey(f[2]); ok {
					linked[key] = true
				}
			}
		}
	}

	problems := reachProblems(decls, linked, reachAllow)
	for _, p := range problems {
		fmt.Println("check reach:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d reachability problems", len(problems))
	}
	fmt.Printf("check reach: %d functions, each linked by one of %d binaries or allowlisted (%d)\n", len(decls), len(mains), len(reachAllow))
	return nil
}

// wrapper matches a closure (".func1", ".func2.1") or go/defer wrapper.
var wrapper = regexp.MustCompile(`\.(func|gowrap|deferwrap)?\d+(\.|$)`)

// symbolKey maps an nm text symbol to its funcDecl key, dropping type
// arguments, "(*…)" and "-fm"; closures and wrappers report false.
func symbolKey(sym string) (string, bool) {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(sym); i++ {
		switch c := sym[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth > 0 && c == '"':
			for i++; i < len(sym) && sym[i] != '"'; i++ {
				if sym[i] == '\\' {
					i++
				}
			}
		case depth == 0 && c != '(' && c != ')' && c != '*':
			b.WriteByte(c)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	return s, !wrapper.MatchString(s) && strings.Contains(s[strings.LastIndex(s, "/")+1:], ".")
}

// reachProblems reports every declaration no binary links that is not
// allowlisted, and every allowlist entry that is linked or not declared.
func reachProblems(decls []funcDecl, linked map[string]bool, allow map[string]string) []string {
	var out, stale []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if _, allowed := allow[d.key]; allowed && linked[d.key] {
			out = append(out, d.pos+": "+d.key+" is linked; drop it from the allowlist")
		} else if !allowed && !linked[d.key] {
			out = append(out, d.pos+": "+d.key+" is linked by no binary")
		}
	}
	for k := range allow {
		if !declared[k] {
			stale = append(stale, "allowlisted "+k+" is not declared")
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}
