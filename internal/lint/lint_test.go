package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureConfigs scopes each check to its fixture tree the same way
// DefaultConfig scopes it to the real one: "." is the fixture's root
// package, comm/detmap are its stub dependency packages.
var fixtureConfigs = map[string]*Config{
	"mapiter":     {MapIterPkgs: []string{"."}},
	"lockstep":    {LockstepPkgs: []string{"."}, CommPkgs: []string{"comm"}},
	"hotalloc":    {HotPaths: map[string][]string{".": {"Hot", "Key.Append", "Renamed"}}},
	"unsafeguard": {UnsafeFiles: []string{"allowed.go"}},
	"nopanic":     {NoPanicPkgs: []string{"."}},
}

// TestFixtures is the golden-diagnostic suite: every fixture line marked
// `// want <check>` (or `// want-next <check>` for the line below, used
// when the flagged line is itself a full-line comment) must produce
// exactly that diagnostic, and no unmarked line may produce any. Each
// fixture covers the flagged form, the sanctioned form, and a reasoned
// suppression; mapiter also covers the mandatory-reason rule.
func TestFixtures(t *testing.T) {
	names := make([]string, 0, len(fixtureConfigs))
	for name := range fixtureConfigs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			root := filepath.Join("testdata", "src", name)
			loader := &Loader{Dir: root}
			pkgs, err := loader.Load("./...")
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			want, err := wantMarkers(loader.Dir)
			if err != nil {
				t.Fatalf("scanning want markers: %v", err)
			}
			got := map[string]bool{}
			for _, d := range Run(fixtureConfigs[name], loader.Dir, pkgs) {
				got[fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.Check)] = true
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missing diagnostic: want %s", key)
				}
			}
			for key := range got {
				if !want[key] {
					t.Errorf("unexpected diagnostic: %s", key)
				}
			}
		})
	}
}

// wantMarkers collects the expected diagnostics of a fixture tree from its
// `// want <check>...` and `// want-next <check>...` comments, keyed
// "file:line: check" with file relative to the fixture root.
func wantMarkers(root string) (map[string]bool, error) {
	valid := checkNames()
	valid[ignoreCheck] = true
	want := map[string]bool{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for marker, offset := range map[string]int{"// want ": 0, "// want-next ": 1} {
				idx := strings.Index(line, marker)
				if idx < 0 {
					continue
				}
				for _, check := range strings.Fields(line[idx+len(marker):]) {
					if !valid[check] {
						return fmt.Errorf("%s:%d: unknown check %q in want marker", rel, i+1, check)
					}
					want[fmt.Sprintf("%s:%d: %s", rel, i+1+offset, check)] = true
				}
			}
		}
		return nil
	})
	return want, err
}
