package sepdc

import (
	"go/build"
	"strings"
	"testing"
)

// TestHotPackagesDoNotImportObs keeps the observability layer out of the
// packages the build and the query engine run through on every node and
// every query: they report through core.Stats and the Batcher's own
// counters, never through obs. The check follows imports within the
// module, so an indirect path to obs fails too.
func TestHotPackagesDoNotImportObs(t *testing.T) {
	const module = "sepdc/"
	for _, root := range []string{"internal/vm", "internal/pool", "internal/topk", "internal/march", "internal/separator"} {
		seen := map[string]bool{}
		var walk func(dir string, path []string)
		walk = func(dir string, path []string) {
			if seen[dir] {
				return
			}
			seen[dir] = true
			pkg, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			for _, imp := range pkg.Imports {
				if !strings.HasPrefix(imp, module) {
					continue
				}
				sub := strings.TrimPrefix(imp, module)
				via := append(path[:len(path):len(path)], sub)
				if sub == "internal/obs" || strings.HasPrefix(sub, "internal/obs/") {
					t.Errorf("%s imports %s", root, strings.Join(via, " → "))
					continue
				}
				walk(sub, via)
			}
		}
		walk(root, []string{root})
	}
}
