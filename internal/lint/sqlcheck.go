package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strconv"
	"strings"

	"perfdmf/internal/sqlparse"
)

// sqlMethods are the godbc entry points that take SQL text as their first
// argument. For Query and Exec the remaining arguments must match the
// statement's placeholder count, and QueryCatalog takes none; Prepare
// binds its arguments later, so only the syntax is checked there.
var sqlMethods = map[string]bool{"Query": true, "Exec": true, "Prepare": true, "QueryCatalog": true}

// Sqlcheck returns the SQL-literal analyzer: every string constant passed
// to Query/Exec/Prepare/QueryCatalog — across cmd/, internal/, examples/, and tests —
// must parse with internal/sqlparse, and for Query/Exec the number of `?`
// placeholders must equal the number of bind arguments at the call.
//
// Only constant SQL is checked; calls whose SQL is built at run time
// (fmt.Sprintf, string vars, concatenation with non-constant parts) are
// skipped — the analyzer cannot know the final text.
func Sqlcheck() *Analyzer {
	const name = "sqlcheck"
	return &Analyzer{
		Name: name,
		Doc:  "SQL literals passed to Query/Exec/Prepare/QueryCatalog must parse and match their placeholder count",
		Run: func(prog *Program) []Diagnostic {
			var out []Diagnostic
			forEachSQLLiteral(prog, func(pkg *Package, call *ast.CallExpr, method, sql string) {
				pos := call.Args[0].Pos()
				if _, err := sqlparse.ParseScript(sql); err != nil {
					out = append(out, diag(prog, name, pos, "SQL does not parse: %v", err))
					return
				}
				if method == "Prepare" {
					return
				}
				// Variadic forwarding (Query(sql, args...)) hides the count.
				if call.Ellipsis != token.NoPos {
					return
				}
				want := countPlaceholders(sql)
				got := len(call.Args) - 1
				if want != got {
					out = append(out, diag(prog, name, pos,
						"%s has %d placeholder(s) but the call passes %d argument(s)", method, want, got))
				}
			})
			return out
		},
	}
}

// ExtractSQL returns every constant SQL literal the analyzer would check,
// deduplicated and sorted by first appearance — the seed corpus for the
// sqlparse fuzz target (perfdmf-vet -dump-sql).
func ExtractSQL(prog *Program) []string {
	seen := make(map[string]bool)
	var out []string
	forEachSQLLiteral(prog, func(_ *Package, _ *ast.CallExpr, _, sql string) {
		if !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	})
	return out
}

// forEachSQLLiteral visits every Query/Exec/Prepare/QueryCatalog call whose first
// argument folds to a string constant. Type-checked files use go/types
// constant folding (covers named consts and const concatenation); test
// files, which are parsed AST-only, fall back to syntactic literal
// folding.
func forEachSQLLiteral(prog *Program, visit func(pkg *Package, call *ast.CallExpr, method, sql string)) {
	for _, pkg := range prog.Packages {
		inspect := func(f *ast.File, typed bool) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				_, m, isMethod := methodCall(call)
				if !isMethod || !sqlMethods[m] {
					return true
				}
				var sql string
				var found bool
				if typed && pkg.Info != nil {
					sql, found = constString(pkg, call.Args[0])
				}
				if !found {
					sql, found = literalString(call.Args[0])
				}
				if found {
					visit(pkg, call, m, sql)
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			inspect(f, true)
		}
		for _, f := range pkg.TestFiles {
			inspect(f, false)
		}
	}
}

// constString resolves an expression to a string constant via the type
// checker, so `const q = "SELECT..."` and `q1 + q2` fold too.
func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// literalString folds syntactic string literals and their concatenations
// without type information.
func literalString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		if err != nil {
			return "", false
		}
		return s, true
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		l, okL := literalString(e.X)
		r, okR := literalString(e.Y)
		if !okL || !okR {
			return "", false
		}
		return l + r, true
	case *ast.ParenExpr:
		return literalString(e.X)
	}
	return "", false
}

// countPlaceholders counts `?` bind markers outside single-quoted strings
// and `--` line comments, mirroring how the sqlparse lexer sees them.
func countPlaceholders(sql string) int {
	n := 0
	for i := 0; i < len(sql); i++ {
		switch sql[i] {
		case '?':
			n++
		case '\'':
			for i++; i < len(sql) && sql[i] != '\''; i++ {
			}
		case '-':
			if i+1 < len(sql) && sql[i+1] == '-' {
				if nl := strings.IndexByte(sql[i:], '\n'); nl >= 0 {
					i += nl
				} else {
					i = len(sql)
				}
			}
		}
	}
	return n
}
