// Command deadcode fails when a func or method declared in a non-test
// file under internal/ is linked into none of the given binaries:
//
//	deadcode -allow deadcode-allow.txt bin...
//
// Build the binaries with inlining off (-gcflags=all=-l), so every
// reached func keeps its own symbol; `make deadcode` does both steps. An
// allowlist line is a symbol as `go tool nm` names it with type arguments
// removed, then the reason it stays; '#' starts a comment. An entry that
// is linked or no longer declared fails too, so the list cannot go stale.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
)

func main() {
	allowPath := flag.String("allow", "", "allowlist file, one `symbol reason` per line")
	flag.Parse()
	problems, err := check(*allowPath, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// check returns one line per unlinked, unlisted func and per stale
// allowlist entry.
func check(allowPath string, bins []string) ([]string, error) {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	declared, err := declaredFuncs("./internal/...")
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "addr T name"; a name with type arguments may hold spaces.
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
	}
	var problems []string
	for sym := range declared {
		if !linked[sym] && allow[sym] == "" {
			problems = append(problems, "unreached: "+sym)
		}
	}
	for sym := range allow {
		if !declared[sym] || linked[sym] {
			problems = append(problems, "stale allowlist entry (linked or not declared): "+sym)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// declaredFuncs returns the symbols of the funcs and methods in the
// non-test files the build selects for pattern's packages.
func declaredFuncs(pattern string) (map[string]bool, error) {
	// One "import path<TAB>file" line per non-test file.
	out, err := exec.Command("go", "list", "-f", "{{range .GoFiles}}{{$.ImportPath}}\t{{$.Dir}}/{{.}}\n{{end}}", pattern).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	syms := make(map[string]bool)
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, file, _ := strings.Cut(line, "\t")
		af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				// As `go tool nm` names methods: "T.M", "(*T).M".
				recv := stripTypeArgs(types.ExprString(fd.Recv.List[0].Type))
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				name = recv + "." + name
			}
			syms[pkg+"."+name] = true
		}
	}
	return syms, nil
}

// typeArgs matches an innermost bracketed type-argument list.
var typeArgs = regexp.MustCompile(`\[[^][]*\]`)

// stripTypeArgs removes every type-argument list, nested ones too, so
// "p.(*Ring[go.shape.float64]).Push" becomes "p.(*Ring).Push".
func stripTypeArgs(sym string) string {
	for typeArgs.MatchString(sym) {
		sym = typeArgs.ReplaceAllString(sym, "")
	}
	return sym
}

// readAllowlist maps each listed symbol to its reason; a symbol without
// a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := make(map[string]string)
	for n, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		sym, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if sym == "" {
			continue
		}
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}
