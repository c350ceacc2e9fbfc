// Command docguard is the CI documentation gate. It enforces six invariants
// the test suite cannot see:
//
//  1. Every Go package in the repository carries a package doc comment
//     (the godoc landing paragraph), so `go doc ./internal/...` never
//     returns an undocumented package.
//  2. The code identifiers named in DESIGN.md and README.md still resolve:
//     every inline code span that looks like a Go identifier — Test/
//     Benchmark names, qualified names like tensor.Gemm, camelCase
//     constants like bnBlockRows — must appear in the Go sources. Renaming
//     a kernel or deleting a pinned test without updating the docs fails
//     the build instead of leaving the kernel chapter pointing at nothing.
//  3. Section references point the other way too: every "DESIGN.md §N"
//     (or §N.M) citation in a Go doc comment must resolve to a matching
//     numbered heading in DESIGN.md. Renumbering the design doc — or
//     citing a chapter (such as §14, the dtype architecture) before it is
//     written — fails the build instead of stranding the reader.
//  4. No export of an imported internal package is left to tests alone:
//     each exported top-level func and type is used by some non-test Go
//     file outside its own declaration. Methods are not checked (an
//     interface or net/rpc can call them by name).
//  5. Every "ROADMAP item N" or "item N(x)" citation in DESIGN.md, README.md
//     and the Go sources names an item of ROADMAP.md's open list (and, with
//     a letter, a sub-item "(x)" in that item's text), so a done or
//     renumbered item cannot be cited for PRs after it is gone.
//  6. DESIGN.md and README.md together stay within docLineBudget lines: a
//     change that must grow one section shrinks another, or raises the
//     budget in the same diff with its reason in CHANGES.md.
//
// Usage (from the repository root, as CI runs it):
//
//	go run ./cmd/docguard
//
// Exit status is nonzero with one line per violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	violations, err := check(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docguard: %v\n", err)
		os.Exit(1)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "docguard: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docguard: packages documented, doc identifiers, section and item refs resolve, every internal export is used, docs within budget")
}

// check runs the six rules over the tree at root (skipping testdata and
// hidden directories such as .git and build caches) and returns one line per
// violation.
func check(root string) ([]string, error) {
	var violations []string
	var source strings.Builder // every .go file, tests included
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // package directory -> its non-test files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		source.Write(data)
		source.WriteByte('\n')
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, data, parser.ParseComments)
		if err != nil {
			violations = append(violations, err.Error())
			return nil
		}
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	violations = append(violations, checkPackageDocs(pkgs)...)

	words := map[string]bool{}
	for _, w := range word.FindAllString(source.String(), -1) {
		words[w] = true
	}
	items, err := roadmapItems(filepath.Join(root, "ROADMAP.md"))
	if err != nil {
		violations = append(violations, err.Error())
	}
	violations = append(violations, checkItemRefs(items, "go sources", source.String())...)
	lines := 0
	for _, md := range []string{"DESIGN.md", "README.md"} {
		violations = append(violations, checkDocDrift(filepath.Join(root, md), words)...)
		data, _ := os.ReadFile(filepath.Join(root, md)) // checkDocDrift reports a read error
		violations = append(violations, checkItemRefs(items, md, string(data))...)
		lines += strings.Count(string(data), "\n")
	}
	if lines > docLineBudget {
		violations = append(violations, fmt.Sprintf("DESIGN.md + README.md are %d lines, over the budget of %d (docLineBudget): shrink a section, or raise the budget with its reason in CHANGES.md", lines, docLineBudget))
	}
	violations = append(violations, checkSectionRefs(filepath.Join(root, "DESIGN.md"), source.String())...)
	return append(violations, checkOrphans(root, fset, pkgs)...), nil
}

// docLineBudget is the committed ceiling on DESIGN.md + README.md lines.
const docLineBudget = 2419

// checkPackageDocs requires at least one non-test file per package directory
// to carry a package doc comment.
func checkPackageDocs(pkgs map[string][]*ast.File) []string {
	var out []string
	for dir, files := range pkgs {
		if !slices.ContainsFunc(files, func(f *ast.File) bool { return strings.TrimSpace(f.Doc.Text()) != "" }) {
			out = append(out, fmt.Sprintf("%s: package has no doc comment on any file", dir))
		}
	}
	return out
}

var (
	// word matches one identifier-shaped run of the Go sources.
	word       = regexp.MustCompile(`\w+`)
	inlineSpan = regexp.MustCompile("`([^`\n]+)`")
	// testName matches pinned test/benchmark references.
	testName = regexp.MustCompile(`^(Test|Benchmark)[A-Z]\w*$`)
	// qualified matches dotted identifier chains (tensor.Gemm,
	// SearchOptions.Progress, cluster.tasks.requeued).
	qualified = regexp.MustCompile(`^[A-Za-z]\w*(\.[A-Za-z]\w*)+$`)
	// camel matches unexported camelCase identifiers (bnBlockRows,
	// convArena, gemmKBlock).
	camel = regexp.MustCompile(`^[a-z][a-z0-9]*[A-Z]\w*$`)
)

// checkDocDrift extracts identifier-shaped inline code spans from one
// markdown file and requires every dot-separated segment to be one of the
// words of the Go sources. Fenced code blocks are skipped: they hold shell
// transcripts and multi-line examples, not single identifiers.
func checkDocDrift(mdPath string, words map[string]bool) []string {
	data, err := os.ReadFile(mdPath)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", mdPath, err)}
	}
	var out []string
	checked := map[string]bool{}
	inFence := false
	for _, lineText := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(lineText), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range inlineSpan.FindAllStringSubmatch(lineText, -1) {
			tok := spanToken(m[1])
			if tok == "" || checked[tok] {
				continue
			}
			checked[tok] = true
			for _, seg := range strings.Split(tok, ".") {
				if !words[seg] {
					out = append(out, fmt.Sprintf("%s: `%s` names %q, which no longer appears in the Go sources", mdPath, tok, seg))
					break
				}
			}
		}
	}
	return out
}

// spanToken reduces an inline span to a checkable identifier token, or ""
// when the span is not identifier-shaped (paths, flags, filenames, prose).
func spanToken(span string) string {
	tok := strings.Fields(strings.TrimSpace(span))
	if len(tok) == 0 {
		return ""
	}
	t := strings.TrimSuffix(tok[0], "()")
	if strings.ContainsAny(t, "/-=<>{}[]()*%$'\",;:") {
		return ""
	}
	// Filenames (BENCH_5.json, run.swtj) are artifacts, not identifiers.
	switch t[strings.LastIndexByte(t, '.')+1:] {
	case "json", "txt", "md", "go", "yml", "csv", "swtj":
		return ""
	}
	switch {
	case testName.MatchString(t):
		return t
	case camel.MatchString(t):
		return t
	// Qualified chains must mention something exported or camelCase so
	// plain filenames (run.json, bench_output.txt) are not matched.
	case qualified.MatchString(t) && strings.IndexFunc(t, func(r rune) bool { return r >= 'A' && r <= 'Z' }) >= 0:
		return t
	}
	return ""
}

var (
	// sectionRef matches DESIGN.md section citations in Go sources
	// ("DESIGN.md §14", "DESIGN.md §9.3").
	sectionRef = regexp.MustCompile(`DESIGN\.md §([0-9]+(?:\.[0-9]+)?)`)
	// sectionHeading matches the numbered markdown headings those
	// citations must resolve to ("## 14. Dtype architecture",
	// "### 9.3 The bit-identical contract").
	sectionHeading = regexp.MustCompile(`^#{2,4} ([0-9]+(?:\.[0-9]+)?)[. ]`)
)

// checkSectionRefs requires every "DESIGN.md §N" citation in the Go
// sources to resolve to a numbered heading in DESIGN.md, so renumbering
// the design doc cannot silently strand code comments.
func checkSectionRefs(mdPath, source string) []string {
	data, err := os.ReadFile(mdPath)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", mdPath, err)}
	}
	headings := map[string]bool{}
	for _, lineText := range strings.Split(string(data), "\n") {
		if m := sectionHeading.FindStringSubmatch(lineText); m != nil {
			headings[m[1]] = true
		}
	}
	var out []string
	seen := map[string]bool{}
	for _, m := range sectionRef.FindAllStringSubmatch(source, -1) {
		sec := m[1]
		if seen[sec] {
			continue
		}
		seen[sec] = true
		if !headings[sec] {
			out = append(out, fmt.Sprintf("go sources cite DESIGN.md §%s, but %s has no heading numbered %s", sec, mdPath, sec))
		}
	}
	return out
}

var (
	// itemRef matches ROADMAP item citations ("ROADMAP item 8", "items 2",
	// "item 15(c)"); group 2 is the sub-item letter.
	itemRef = regexp.MustCompile(`\b(?:ROADMAP(?:\.md)? )?[Ii]tems? ([0-9]+)(?:\(([a-z])\))?`)
	// itemHeading matches an item of ROADMAP.md's open list ("21. **One
	// issue loop").
	itemHeading = regexp.MustCompile(`^([0-9]+)\. `)
)

// roadmapItems returns the text of each item under ROADMAP.md's "## Open
// items" heading, by item number.
func roadmapItems(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	items := map[string]string{}
	open, cur := false, ""
	for _, lineText := range strings.Split(string(data), "\n") {
		switch m := itemHeading.FindStringSubmatch(lineText); {
		case strings.HasPrefix(lineText, "## "):
			open, cur = lineText == "## Open items", ""
		case open && m != nil:
			cur = m[1]
		}
		if cur != "" {
			items[cur] += lineText + "\n"
		}
	}
	return items, nil
}

// checkItemRefs requires every ROADMAP item citation in text (named name in
// the violations) to name one of items, and a cited sub-item to appear as
// "(x)" in its item's text.
func checkItemRefs(items map[string]string, name, text string) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range itemRef.FindAllStringSubmatch(text, -1) {
		ref := m[1]
		if m[2] != "" {
			ref += "(" + m[2] + ")"
		}
		if seen[ref] {
			continue
		}
		seen[ref] = true
		switch body, ok := items[m[1]]; {
		case !ok:
			out = append(out, fmt.Sprintf("%s cites ROADMAP item %s, but ROADMAP.md has no item %s", name, ref, m[1]))
		case m[2] != "" && !strings.Contains(body, "("+m[2]+")"):
			out = append(out, fmt.Sprintf("%s cites ROADMAP item %s, but item %s of ROADMAP.md has no (%s)", name, ref, m[1], m[2]))
		}
	}
	return out
}

// checkOrphans enforces rule 4 by name alone, with no type checking: any
// same-named identifier outside the declaration (a method, a field) counts as
// a use, so the rule can miss an unused export but never flags a used one.
func checkOrphans(root string, fset *token.FileSet, pkgs map[string][]*ast.File) []string {
	uses, imported := map[string]int{}, map[string]bool{}
	for _, files := range pkgs {
		for _, f := range files {
			countIdents(f, uses)
			for _, imp := range f.Imports {
				if _, pkg, ok := strings.Cut(strings.Trim(imp.Path.Value, `"`), "/internal/"); ok {
					imported[filepath.Join(root, "internal", pkg)] = true
				}
			}
		}
	}
	var out []string
	for dir, files := range pkgs {
		if !imported[dir] {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				fd, isFunc := n.(*ast.FuncDecl)
				var name *ast.Ident
				if ts, ok := n.(*ast.TypeSpec); ok {
					name = ts.Name
				} else if isFunc && fd.Recv == nil {
					name = fd.Name
				}
				if name != nil && name.IsExported() && uses[name.Name] == countIdents(n, map[string]int{})[name.Name] {
					out = append(out, fmt.Sprintf("%s: %s.%s is exported, but no non-test Go file uses it",
						fset.Position(name.Pos()), f.Name.Name, name.Name))
				}
				return !isFunc // nothing inside a function is a top-level declaration
			})
		}
	}
	sort.Strings(out)
	return out
}

// countIdents adds every identifier under n to counts and returns counts.
func countIdents(n ast.Node, counts map[string]int) map[string]int {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			counts[id.Name]++
		}
		return true
	})
	return counts
}
