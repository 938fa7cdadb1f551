package gmorph_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose backticked names must stay live.
// cmd/bench/README.md belongs to the benchmark and is left out.
var docFiles = []string{
	"DESIGN.md",
	"README.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// goName matches Name, pkg.Name and Name(), the package possibly
	// given by its path (internal/search/worker.Server); the submatch is
	// Name.
	goName  = regexp.MustCompile(`^(?:(?:internal/[\w/]+/)?[a-z][a-z0-9]*\.)?([A-Z][A-Za-z0-9_]*)(?:\(\))?$`)
	repoRef = regexp.MustCompile(`^(?:internal/[\w./-]*|[\w./-]+\.(?:go|s|json))$`)
	ident   = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
)

// TestDocsNameLiveCode keeps the documents from naming code that is gone:
// every backticked exported Go name (`Name`, `pkg.Name`, `Name()`) must
// appear as a whole word in some .go or .s file, and every backticked
// repository path (`internal/...`, `*.go`, `*.s`, `*.json`) must match a
// file or directory of the tree by suffix. Fenced code blocks are skipped.
func TestDocsNameLiveCode(t *testing.T) {
	words := map[string]bool{}
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return fs.SkipDir
		}
		paths = append(paths, filepath.ToSlash(p))
		if ext := filepath.Ext(p); !d.IsDir() && (ext == ".go" || ext == ".s") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, w := range ident.FindAll(src, -1) {
				words[string(w)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inTree := func(ref string) bool {
		for _, p := range paths {
			if p == ref || strings.HasSuffix(p, "/"+ref) {
				return true
			}
		}
		return false
	}

	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				tok := m[1]
				if g := goName.FindStringSubmatch(tok); g != nil {
					if !words[g[1]] {
						t.Errorf("%s:%d: `%s` names no identifier in a .go or .s file", doc, i+1, tok)
					}
				} else if repoRef.MatchString(tok) && !inTree(strings.TrimSuffix(tok, "/")) {
					t.Errorf("%s:%d: `%s` matches no file in the tree", doc, i+1, tok)
				}
			}
		}
	}
}
