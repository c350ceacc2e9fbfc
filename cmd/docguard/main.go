// Command docguard is the CI documentation gate. It enforces two invariants
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
//
// Usage (from the repository root, as CI runs it):
//
//	go run ./cmd/docguard
//
// Exit status is nonzero with one line per violation.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	goFiles, pkgDirs, err := collectGo(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docguard: %v\n", err)
		os.Exit(1)
	}

	var violations []string
	violations = append(violations, checkPackageDocs(pkgDirs)...)

	source := readAll(goFiles)
	for _, md := range []string{"DESIGN.md", "README.md"} {
		violations = append(violations, checkDocDrift(filepath.Join(root, md), source)...)
	}
	violations = append(violations, checkSectionRefs(filepath.Join(root, "DESIGN.md"), source)...)

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "docguard: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("docguard: %d packages documented, doc identifiers and section refs resolve\n", len(pkgDirs))
}

// collectGo walks the tree for .go files and the directories holding them
// (skipping .git and testdata).
func collectGo(root string) (files []string, dirs map[string][]string, err error) {
	dirs = map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], path)
		}
		return nil
	})
	return files, dirs, err
}

// checkPackageDocs requires at least one non-test file per package directory
// to carry a package doc comment.
func checkPackageDocs(pkgDirs map[string][]string) []string {
	var out []string
	fset := token.NewFileSet()
	for dir, files := range pkgDirs {
		documented := false
		hasNonTest := false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			hasNonTest = true
			af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				out = append(out, fmt.Sprintf("%s: %v", f, err))
				continue
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if hasNonTest && !documented {
			out = append(out, fmt.Sprintf("%s: package has no doc comment on any file", dir))
		}
	}
	return out
}

func readAll(files []string) string {
	var b strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

var (
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
// markdown file and requires every dot-separated segment to appear as a
// word in the Go sources. Fenced code blocks are skipped: they hold shell
// transcripts and multi-line examples, not single identifiers.
func checkDocDrift(mdPath, source string) []string {
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
				if !wordIn(source, seg) {
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

// wordIn reports whether seg appears in source on an identifier boundary.
func wordIn(source, seg string) bool {
	for i := 0; ; {
		j := strings.Index(source[i:], seg)
		if j < 0 {
			return false
		}
		j += i
		before := byte(' ')
		if j > 0 {
			before = source[j-1]
		}
		after := byte(' ')
		if end := j + len(seg); end < len(source) {
			after = source[end]
		}
		if !isWordByte(before) && !isWordByte(after) {
			return true
		}
		i = j + 1
	}
}

func isWordByte(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
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
