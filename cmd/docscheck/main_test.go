package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTree creates files (slash-separated path -> content) under a fresh
// temporary root and returns the root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// wiredTree is a module where every internal package with non-test files
// is reached from a run: a from cmd/, b from a, a/sub from a, c from
// examples/, d from hostbench/. internal/e has only a test file, so it is
// no package a run could reach and is not checked.
var wiredTree = map[string]string{
	"go.mod":                "module example\n\ngo 1.22\n",
	"cmd/tool/main.go":      "package main\n\nimport _ \"example/internal/a\"\n\nfunc main() {}\n",
	"internal/a/a.go":       "package a\n\nimport (\n\t_ \"example/internal/a/sub\"\n\t_ \"example/internal/b\"\n)\n",
	"internal/a/sub/sub.go": "package sub\n",
	"internal/a/testdata/x": "not go\n",
	"internal/b/b.go":       "package b\n",
	"internal/c/c.go":       "package c\n",
	"internal/d/d.go":       "package d\n",
	"internal/e/e_test.go":  "package e\n",
	"examples/demo/main.go": "package main\n\nimport _ \"example/internal/c\"\n\nfunc main() {}\n",
	"hostbench/main.go":     "package main\n\nimport _ \"example/internal/d\"\n\nfunc main() {}\n",
}

func TestCheckOrphanPackagesNone(t *testing.T) {
	if got := checkOrphanPackages(writeTree(t, wiredTree)); len(got) != 0 {
		t.Fatalf("checkOrphanPackages = %q, want no problems", got)
	}
}

func TestCheckOrphanPackagesFlagsOrphans(t *testing.T) {
	files := map[string]string{}
	for k, v := range wiredTree {
		files[k] = v
	}
	// orphan is imported only by tests, its own and another package's:
	// neither is a run.
	files["internal/orphan/orphan.go"] = "package orphan\n"
	files["internal/orphan/orphan_test.go"] = "package orphan_test\n\nimport _ \"example/internal/orphan\"\n"
	files["internal/b/b_test.go"] = "package b\n\nimport _ \"example/internal/orphan\"\n"
	got := checkOrphanPackages(writeTree(t, files))
	want := []string{
		"internal/orphan: package has no importer outside its own directory; wire it into a run or delete it",
	}
	for i := range got {
		got[i] = filepath.ToSlash(got[i])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkOrphanPackages =\n%q\nwant\n%q", got, want)
	}
}
