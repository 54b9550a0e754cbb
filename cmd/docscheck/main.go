// Command docscheck keeps the prose honest: it fails when the
// documentation references a command-line flag no command defines, an
// error variable or Go identifier no package declares, or when a Go code
// fence in the markdown is not gofmt-formatted.
//
//	go run ./cmd/docscheck
//
// Run from the repository root (CI runs it as the docs-check job). Four
// checks:
//
//  1. Every `-flag` token in inline code or non-Go code fences of the
//     operator-facing documents (README.md, OPERATIONS.md,
//     REPLICATION.md, DURABILITY.md) must be a flag some command under
//     cmd/ actually defines — so renaming or removing a flag without
//     updating the docs breaks the build, not the user.
//  2. Every `ErrXxx` identifier those documents mention (ErrFenced,
//     core.ErrCorrupt, …) must be declared somewhere in the repository's
//     Go source — retiring or renaming a sentinel error without updating
//     the failure-handling docs breaks the build too.
//  3. Every `Config.X` / `WALOptions.X` those documents mention must be a
//     field or method of a Go type of that name, and every inline code
//     span that is a bare UpperCamel token (`Checkpoint`, `ErrFenced`)
//     must be an identifier declared somewhere in the Go source — so a
//     removed or renamed option cannot linger in the operator docs.
//     allowedIdents lists the deliberate non-Go exceptions.
//  4. Every ```go fence in any root-level markdown file must survive
//     gofmt unchanged (leading 4-space indents are treated as tabs, the
//     usual markdown rendering of Go indentation).
package main

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// flagDocs are the documents whose flag references are validated.
var flagDocs = []string{"README.md", "OPERATIONS.md", "REPLICATION.md", "DURABILITY.md"}

// allowedTools are non-repo flags the docs may legitimately mention
// (go test / go build flags in testing instructions).
var allowedTools = map[string]bool{
	"race": true, "bench": true, "benchmem": true, "count": true,
	"run": true, "short": true, "v": true, "cover": true, "tags": true,
}

// allowedIdents are bare UpperCamel tokens the docs may put in backticks
// although the repository does not declare them (standard-library names).
var allowedIdents = map[string]bool{
	"Chtimes": true, // os.Chtimes, the lease heartbeat
}

var (
	// memberRef matches a member of one of the option structs in
	// documentation code, with or without a package qualifier
	// (Config.CommitInterval, dctree.WALOptions.SegmentBytes).
	memberRef = regexp.MustCompile(`\b(Config|WALOptions)\.([A-Z][A-Za-z0-9]*)`)
	// upperCamel matches an inline code span that is exactly one exported
	// Go-style identifier: an upper-case letter, then at least one
	// lower-case letter or digit somewhere (so ALLCAPS like SUM or AFRICA
	// are not identifiers).
	upperCamel = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*$`)
	// flagDef matches flag definitions: flag.String("name", …) and
	// fs.Bool("name", …) alike.
	flagDef = regexp.MustCompile(`\.(?:(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\(|Var\([^,]+,\s*)"([^"]+)"`)
	// flagRef matches a flag token in documentation text: a dash followed
	// by a letter, up to a value or word boundary. "-checkpoint=false"
	// and "-n 100000" both yield their flag name.
	flagRef = regexp.MustCompile(`(?:^|[\s(|])-([a-z][a-z0-9-]*)`)
	// inlineCode matches `…` spans.
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// errDef matches sentinel error declarations: `var ErrGap = …` and
	// `ErrGap = errors.New(…)` inside a var block alike.
	errDef = regexp.MustCompile(`(?m)^\s*(?:var\s+)?(Err[A-Z][A-Za-z0-9]*)\s*=`)
	// errRef matches an error identifier in documentation code, with or
	// without a package qualifier (core.ErrFenced, ErrGap).
	errRef = regexp.MustCompile(`\b(?:[a-z][a-z0-9]*\.)?(Err[A-Z][A-Za-z0-9]*)\b`)
)

func main() {
	defined, err := definedFlags("cmd")
	if err != nil {
		fatal(err)
	}
	errs, err := declaredErrors(".")
	if err != nil {
		fatal(err)
	}
	decl, err := declaredIdents(".")
	if err != nil {
		fatal(err)
	}
	var problems []string
	for _, doc := range flagDocs {
		p, err := checkFlagRefs(doc, defined)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
		p, err = checkErrRefs(doc, errs)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
		p, err = checkIdentRefs(doc, decl)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
	}
	docs, err := filepath.Glob("*.md")
	if err != nil {
		fatal(err)
	}
	for _, doc := range docs {
		p, err := checkGoFences(doc)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
	os.Exit(1)
}

// definedFlags collects every flag name defined by any command under
// cmdDir, by scanning the source for flag-definition calls.
func definedFlags(cmdDir string) (map[string]bool, error) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(cmdDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if len(defined) == 0 && err == nil {
		err = fmt.Errorf("no flag definitions found under %s — run from the repository root", cmdDir)
	}
	return defined, err
}

// declaredErrors collects every ErrXxx sentinel declared anywhere in the
// repository's Go source (tests included — docs may cite test-only
// sentinels is not a case we want, but over-collection only costs the
// check a little sharpness, never a false failure).
func declaredErrors(root string) (map[string]bool, error) {
	declared := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range errDef.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if len(declared) == 0 && err == nil {
		err = fmt.Errorf("no error declarations found under %s — run from the repository root", root)
	}
	return declared, err
}

// goDecls is what the repository's Go source declares: every declared
// name, and per type name the fields and methods of types so named.
type goDecls struct {
	idents  map[string]bool
	members map[string]map[string]bool
}

func (g goDecls) addMember(typ, name string) {
	if g.members[typ] == nil {
		g.members[typ] = make(map[string]bool)
	}
	g.members[typ][name] = true
}

// declaredIdents parses every Go file under root (skipping testdata and
// hidden directories) and collects the names it declares. Type names are
// unqualified, so Config's members are the union over every package's
// Config — the public alias and the struct behind it alike.
func declaredIdents(root string) (goDecls, error) {
	g := goDecls{idents: make(map[string]bool), members: make(map[string]map[string]bool)}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				g.idents[n.Name.Name] = true
				if n.Recv != nil && len(n.Recv.List) == 1 {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						g.addMember(id.Name, n.Name.Name)
					}
				}
			case *ast.TypeSpec:
				g.idents[n.Name.Name] = true
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							g.addMember(n.Name.Name, name.Name)
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					g.idents[name.Name] = true
				}
			case *ast.Field:
				for _, name := range n.Names {
					g.idents[name.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if len(g.idents) == 0 && err == nil {
		err = fmt.Errorf("no Go declarations found under %s — run from the repository root", root)
	}
	return g, err
}

// checkIdentRefs scans doc for Config/WALOptions members (inline code and
// code fences) and bare UpperCamel inline code spans, and reports any the
// Go source does not declare.
func checkIdentRefs(doc string, g goDecls) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		var code []string
		if inFence {
			code = append(code, line)
		} else {
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
				if tok := m[1]; upperCamel.MatchString(tok) && !g.idents[tok] && !allowedIdents[tok] {
					problems = append(problems,
						fmt.Sprintf("%s:%d: identifier %s is not declared anywhere in the Go source", doc, i+1, tok))
				}
			}
		}
		for _, c := range code {
			for _, m := range memberRef.FindAllStringSubmatch(c, -1) {
				if typ, name := m[1], m[2]; !g.members[typ][name] {
					problems = append(problems,
						fmt.Sprintf("%s:%d: %s.%s is not a field or method of any Go type %s", doc, i+1, typ, name, typ))
				}
			}
		}
	}
	return problems, nil
}

// checkErrRefs scans doc's inline code spans and code fences for ErrXxx
// identifiers and reports any the Go source does not declare.
func checkErrRefs(doc string, declared map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		var code []string
		if inFence {
			code = append(code, line)
		} else {
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
			}
		}
		for _, c := range code {
			for _, m := range errRef.FindAllStringSubmatch(c, -1) {
				if name := m[1]; !declared[name] {
					problems = append(problems,
						fmt.Sprintf("%s:%d: error %s is not declared anywhere in the Go source", doc, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

// checkFlagRefs scans doc's inline code spans and non-Go code fences for
// flag tokens and reports any that no command defines.
func checkFlagRefs(doc string, defined map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence, goFence := false, false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			if !inFence {
				lang := strings.TrimPrefix(strings.TrimSpace(line), "```")
				goFence = lang == "go"
			}
			inFence = !inFence
			continue
		}
		var code []string
		switch {
		case inFence && !goFence:
			code = append(code, line)
		case !inFence:
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
			}
		}
		for _, c := range code {
			for _, m := range flagRef.FindAllStringSubmatch(c, -1) {
				name := m[1]
				if !defined[name] && !allowedTools[name] {
					problems = append(problems,
						fmt.Sprintf("%s:%d: flag -%s is not defined by any command under cmd/", doc, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

// checkGoFences gofmt-checks every ```go fence in doc. Snippets without a
// package clause are treated as statements (wrapped in a function);
// leading 4-space indents count as tabs.
func checkGoFences(doc string) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i + 1
		j := start
		for j < len(lines) && strings.TrimSpace(lines[j]) != "```" {
			j++
		}
		snippet := strings.Join(lines[start:j], "\n")
		if err := gofmtClean(snippet); err != nil {
			problems = append(problems, fmt.Sprintf("%s:%d: go fence: %v", doc, start, err))
		}
		i = j
	}
	return problems, nil
}

// gofmtClean reports whether the snippet is gofmt-formatted (after
// normalizing 4-space indentation to tabs).
func gofmtClean(snippet string) error {
	norm := normalizeIndent(snippet)
	src := norm
	wrapped := !strings.Contains(norm, "package ")
	if wrapped {
		var b strings.Builder
		b.WriteString("package p\n\nfunc _() {\n")
		for _, line := range strings.Split(norm, "\n") {
			if line != "" {
				b.WriteByte('\t')
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
		b.WriteString("}\n")
		src = b.String()
	}
	formatted, err := format.Source([]byte(src))
	if err != nil {
		return fmt.Errorf("does not parse: %v", err)
	}
	if string(formatted) != src {
		return fmt.Errorf("not gofmt-formatted")
	}
	return nil
}

// normalizeIndent rewrites leading 4-space groups as tabs, line by line.
func normalizeIndent(s string) string {
	lines := strings.Split(s, "\n")
	for i, line := range lines {
		var tabs int
		for strings.HasPrefix(line, "    ") {
			line = line[4:]
			tabs++
		}
		lines[i] = strings.Repeat("\t", tabs) + line
	}
	return strings.Join(lines, "\n")
}
