package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/reports.golden from this tree's reports")

// goldenPath holds one "sha256  name" line per registry entry: the digest of
// the entry's report at Quick().
var goldenPath = filepath.Join("testdata", "reports.golden")

// TestReportsGolden pins every experiment report byte for byte: each
// registry entry runs through Entry.Run at Quick() and its report's SHA-256
// must match the recorded digest. shardscale is left out because its report
// carries wall-clock columns. After a deliberate change to a report, rerun
// with -update and review the diff of the golden file.
func TestReportsGolden(t *testing.T) {
	cfg := Quick()
	var got bytes.Buffer
	for _, e := range Registry() {
		if e.Name == "shardscale" {
			continue
		}
		report, _, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(report)), e.Name)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	digests := func(b []byte) map[string]string {
		m := map[string]string{}
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
				m[name] = sum
			}
		}
		return m
	}
	g, w := digests(got.Bytes()), digests(want)
	for name, sum := range g {
		if w[name] != sum {
			t.Errorf("%s: report digest %s, golden %q", name, sum, w[name])
		}
	}
	for name := range w {
		if _, ok := g[name]; !ok {
			t.Errorf("%s: in %s but not in the registry", name, goldenPath)
		}
	}
}

func TestRegistryEntries(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.Run == nil {
			t.Errorf("%s: nil Run", e.Name)
		}
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			if seen[name] {
				t.Errorf("%s: name %q repeats", e.Name, name)
			}
			seen[name] = true
			if got, ok := LookupExperiment(name); !ok || got.Name != e.Name {
				t.Errorf("LookupExperiment(%q) = %q, %v; want %q", name, got.Name, ok, e.Name)
			}
		}
	}
}
