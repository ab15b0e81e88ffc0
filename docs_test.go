package haystack

// Documentation hygiene: every relative markdown link must resolve,
// and prose references to test/benchmark symbols must not dangle —
// the docs are part of the operator-facing surface and CI runs this
// as the doc-link check step.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target); targets with a scheme or a pure
// anchor are out of scope.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocRelativeLinksResolve(t *testing.T) {
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, sub...)
	if len(files) < 5 {
		t.Fatalf("found only %d markdown files; glob broken?", len(files))
	}
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // strip fragment
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", f, m[1], err)
			}
		}
	}
}

// historyDocs are append-only records of past work. They name the
// tests and benchmarks of their day, including ones later PRs deleted,
// so their symbol references are not checked.
var historyDocs = map[string]bool{"ROADMAP.md": true, "CHANGES.md": true, "ISSUE.md": true}

var docSymbol = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z]\w+`)

// danglingSymbols returns the Test*/Benchmark* identifiers in the body
// of markdown file f that no function in code defines; history files
// are not checked.
func danglingSymbols(code, f, body string) []string {
	if historyDocs[f] {
		return nil
	}
	var missing []string
	for _, name := range docSymbol.FindAllString(body, -1) {
		if !strings.Contains(code, "func "+name+"(") {
			missing = append(missing, name)
		}
	}
	return missing
}

// TestDocSymbolReferencesExist greps the markdown for Test*/Benchmark*
// identifiers and checks each names a real symbol in the Go sources,
// catching references left dangling by refactors.
func TestDocSymbolReferencesExist(t *testing.T) {
	mds, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := filepath.Glob("docs/*.md")
	mds = append(mds, sub...)

	var src strings.Builder
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			src.Write(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	code := src.String()

	for _, f := range mds {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range danglingSymbols(code, f, string(body)) {
			t.Errorf("%s references %s, which no Go source defines", f, name)
		}
	}

	t.Run("DanglingNameInCheckedFileFails", func(t *testing.T) {
		body := "see `TestDocSymbolReferencesExist` and `BenchmarkNoSuchSymbolAnywhere`"
		got := danglingSymbols(code, "README.md", body)
		if len(got) != 1 || got[0] != "BenchmarkNoSuchSymbolAnywhere" {
			t.Fatalf("README.md: danglingSymbols = %v, want only the undefined benchmark", got)
		}
		if got := danglingSymbols(code, "CHANGES.md", body); got != nil {
			t.Fatalf("CHANGES.md is history, yet danglingSymbols = %v", got)
		}
	})
}
