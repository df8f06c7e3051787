package qtrtest_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// cliFlag is one flag cmd/qtrtest registers: sub is the subcommand whose
// FlagSet holds it, empty for a global flag.
type cliFlag struct{ sub, name string }

// qtrtestFlags collects every flag cmd/qtrtest registers, from its source: a
// call flag.Kind("name", …) defines a global flag, fs.Kind("name", …) one of
// the subcommand whose flag.NewFlagSet("sub", …) the same function creates.
func qtrtestFlags(t *testing.T) []cliFlag {
	t.Helper()
	files, err := filepath.Glob("cmd/qtrtest/*.go")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{"Bool": true, "Int": true, "Int64": true, "Uint": true, "Float64": true, "String": true, "Duration": true}
	var flags []cliFlag
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sets := map[string]string{} // FlagSet variable -> subcommand
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
					if sub, ok := callOn(as.Rhs[0], "flag", "NewFlagSet"); ok {
						sets[as.Lhs[0].(*ast.Ident).Name] = sub
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !kinds[sel.Sel.Name] {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				name, ok := stringArg(call)
				if !ok {
					return true
				}
				if recv.Name == "flag" {
					flags = append(flags, cliFlag{name: name})
				} else if sub, ok := sets[recv.Name]; ok {
					flags = append(flags, cliFlag{sub: sub, name: name})
				} else {
					t.Errorf("%s: flag -%s on %s, a FlagSet this test cannot place", fset.Position(call.Pos()), name, recv.Name)
				}
				return true
			})
		}
	}
	return flags
}

// callOn reports the first string argument of a call pkg.fn("…", …).
func callOn(e ast.Expr, pkg, fn string) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return "", false
	}
	if x, ok := sel.X.(*ast.Ident); !ok || x.Name != pkg {
		return "", false
	}
	return stringArg(call)
}

func stringArg(call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// TestReadmeMentionsEveryCLIFlag is README's CLI reference check: every flag
// cmd/qtrtest registers must appear in README.md as "-name", and a
// subcommand's flag on a line that also names the subcommand.
func TestReadmeMentionsEveryCLIFlag(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(readme), "\n")
	flags := qtrtestFlags(t)
	if len(flags) < 40 {
		t.Fatalf("found %d flags in cmd/qtrtest; the source scan has gone blind", len(flags))
	}
	for _, f := range flags {
		mention := regexp.MustCompile(`(^|[\s` + "`" + `(/])-` + regexp.QuoteMeta(f.name) + `($|[^\w-])`)
		word := regexp.MustCompile(`\b` + regexp.QuoteMeta(f.sub) + `\b`)
		found := false
		for _, line := range lines {
			if mention.MatchString(line) && (f.sub == "" || word.MatchString(line)) {
				found = true
				break
			}
		}
		if !found {
			if f.sub == "" {
				t.Errorf("README.md never mentions the global flag -%s", f.name)
			} else {
				t.Errorf("README.md never mentions -%s on a line naming %s", f.name, f.sub)
			}
		}
	}
}
