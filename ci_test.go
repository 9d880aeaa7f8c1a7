package stbusgen_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps the gating steps of the CI workflow
// honest: every `|`-alternative of every `go test … -run '…'` pattern
// must match at least one Test or Fuzz function in the packages that
// step lists, so a renamed or deleted test cannot silently drop out of
// a gate. '^$' (run no tests, as the fuzz steps do) is exempt.
// Alternatives are split on `|` and matched against top-level function
// names, which is all the workflow's patterns use.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runRE := regexp.MustCompile(`go test .*?-run ('[^']*'|\S+)(.*)$`)
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	steps := 0
	for _, line := range strings.Split(string(raw), "\n") {
		m := runRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := strings.Trim(m[1], "'")
		if pattern == "^$" {
			continue
		}
		steps++
		var names []string
		var pkgs []string
		for _, f := range strings.Fields(m[2]) {
			if f != "." && !strings.HasPrefix(f, "./") {
				continue
			}
			pkgs = append(pkgs, f)
			files, err := filepath.Glob(filepath.Join(f, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, fm := range funcRE.FindAllStringSubmatch(string(src), -1) {
					names = append(names, fm[1])
				}
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("ci.yml: -run %q lists no package", pattern)
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, name := range names {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml: -run alternative %q matches no Test or Fuzz function in %v", alt, pkgs)
			}
		}
	}
	if steps == 0 {
		t.Fatal("ci.yml: found no go test -run step")
	}
}
