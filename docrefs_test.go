package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// mdRef matches a Markdown file path such as docs/RECOVERY.md.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// TestDocReferencesResolve requires every Markdown file named in Go source,
// README.md or docs/*.md to exist, relative to the naming file's directory
// or else to the repository root.
func TestDocReferencesResolve(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && d.Name()[0] == '.' {
			return filepath.SkipDir
		}
		if !d.IsDir() && filepath.Ext(path) == ".go" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range mdRef.FindAllString(string(src), -1) {
			if !exists(filepath.Join(filepath.Dir(f), ref)) && !exists(ref) {
				t.Errorf("%s names %s, which does not exist", f, ref)
			}
		}
	}
}
