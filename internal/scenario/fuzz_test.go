package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds the scenario decoder arbitrary text, seeded with every
// library and testdata scenario. Parse must never panic; a scenario it
// accepts must be a fixed point of Validate (defaults apply once, so
// Run's own Validate cannot change what Parse accepted); and resolving
// its timeline must never panic, whatever the seed.
func FuzzParse(f *testing.F) {
	for _, glob := range []string{
		filepath.Join("..", "..", "scenarios", "*.yaml"),
		filepath.Join("testdata", "*.yaml"),
	} {
		files, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src), int64(1))
		}
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		sc, err := Parse(src)
		if err != nil {
			return
		}
		if err := revalidate(sc); err != nil {
			t.Fatal(err)
		}
		for _, se := range Schedule(sc, seed) {
			if se.At < se.Event.At {
				t.Fatalf("event %d fires at %v, before its declared %v", se.Seq, se.At, se.Event.At)
			}
		}
	})
}
