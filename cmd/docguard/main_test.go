package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseTree passes every rule: documented packages, a README span, a section
// citation and a ROADMAP item citation that resolve, docs within the line
// budget, and an internal package whose exports a command uses — one a
// func, one a type used only through its method.
var baseTree = map[string]string{
	"go.mod":     "module m\n\ngo 1.22\n",
	"DESIGN.md":  "# Design\n\n## 1. Intro\n",
	"README.md":  "Call `lib.Used` to start (ROADMAP item 1).\n",
	"ROADMAP.md": "# Roadmap\n\n1. **An aim, not an item.**\n\n## Open items\n\n1. **First.**\n   - (a) A part.\n2. **Second.**\n\n## Recent\n\n8. **Not an item either.**\n",
	"internal/lib/lib.go": `// Package lib is a library (DESIGN.md §1).
package lib

// Used is called by the command.
func Used() int { return Kind(0).Value() }

// Kind is referenced by its method only.
type Kind int

// Value returns k.
func (k Kind) Value() int { return int(k) }
`,
	"cmd/tool/main.go": `// Command tool uses lib.
package main

import "m/internal/lib"

func main() { _ = lib.Used() }
`,
}

func TestRules(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string // overlaid on baseTree
		want  string            // a substring of the one violation; "" wants none
	}{
		{"package doc/pass", nil, ""},
		{"package doc/fail", map[string]string{
			"internal/bare/bare.go": "package bare\n",
		}, "internal/bare: package has no doc comment"},

		{"doc drift/pass", map[string]string{
			"README.md":                "Call `lib.Used`, see `TestUsed` and `lib.Kind`.\n",
			"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestUsed(t *testing.T) { Used() }\n",
		}, ""},
		{"doc drift/fail", map[string]string{
			"README.md": "Call `lib.Gone` to start.\n",
		}, "`lib.Gone` names \"Gone\", which no longer appears"},

		// The citations below name sections the repository's own DESIGN.md
		// also has: docguard reads this file as Go source as well.
		{"section refs/pass", map[string]string{
			"DESIGN.md":       "# Design\n\n## 1. Intro\n\n### 9.2 Detail\n",
			"cmd/tool/doc.go": "// See DESIGN.md §9.2.\npackage main\n",
		}, ""},
		{"section refs/fail", map[string]string{
			"cmd/tool/doc.go": "// See DESIGN.md §2.\npackage main\n",
		}, "go sources cite DESIGN.md §2, but"},

		// As above, the cited items exist in the repository's own
		// ROADMAP.md, sub-item letters included.
		{"roadmap items/pass", map[string]string{
			"DESIGN.md":       "# Design\n\n## 1. Intro\n\nSee item 1(a) and items 2 and 1.\n",
			"cmd/tool/doc.go": "// See ROADMAP item 2.\npackage main\n",
		}, ""},
		{"roadmap items/fail", map[string]string{
			"cmd/tool/doc.go": "// See ROADMAP item 8.\npackage main\n",
		}, "go sources cites ROADMAP item 8, but"},
		{"roadmap sub-items/fail", map[string]string{
			"README.md": "Call `lib.Used` (item 1(b)).\n",
		}, "README.md cites ROADMAP item 1(b), but item 1 of"},

		{"line budget/fail", map[string]string{
			"DESIGN.md": "# Design\n\n## 1. Intro\n" + strings.Repeat("\n", docLineBudget-3),
		}, fmt.Sprintf("DESIGN.md + README.md are %d lines, over the budget of %d", docLineBudget+1, docLineBudget)},

		{"orphan exports/pass", map[string]string{
			// A package only tests import is a harness: its exports are
			// not checked.
			"internal/harness/harness.go": "// Package harness helps tests.\npackage harness\n\n// Unused is for tests.\nfunc Unused() {}\n",
			"internal/lib/lib_test.go":    "package lib\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/harness\"\n)\n\nfunc TestX(t *testing.T) { harness.Unused() }\n",
		}, ""},
		{"orphan exports/fail", map[string]string{
			// Its own recursion and a test call do not count as uses.
			"internal/lib/extra.go":    "package lib\n\n// Orphan calls itself.\nfunc Orphan(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn Orphan(n - 1)\n}\n",
			"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestOrphan(t *testing.T) { Orphan(2) }\n",
		}, "lib.Orphan is exported, but no non-test Go file uses it"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			files := map[string]string{}
			for name, body := range baseTree {
				files[name] = body
			}
			for name, body := range c.files {
				files[name] = body
			}
			for name, body := range files {
				p := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := check(root)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.want == "" && len(got) != 0:
				t.Fatalf("want no violation, got %q", got)
			case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
				t.Fatalf("want one violation containing %q, got %q", c.want, got)
			}
		})
	}
}
