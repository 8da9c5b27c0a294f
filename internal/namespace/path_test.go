package namespace

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"/", nil},
		{"", nil},
		{"/a", []string{"a"}},
		{"/a/b/c", []string{"a", "b", "c"}},
		{"/a//b/", []string{"a", "b"}},
		{"a/b", []string{"a", "b"}},
		{"/./a/./b", []string{"a", "b"}},
	}
	for _, c := range cases {
		got := SplitPath(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJoinPath(t *testing.T) {
	if JoinPath(nil) != "/" {
		t.Errorf("JoinPath(nil) = %q", JoinPath(nil))
	}
	if got := JoinPath([]string{"a", "b"}); got != "/a/b" {
		t.Errorf("JoinPath = %q, want /a/b", got)
	}
}

func TestParentPath(t *testing.T) {
	cases := []struct {
		in        string
		dir, name string
	}{
		{"/a/b/c", "/a/b", "c"},
		{"/a", "/", "a"},
		{"/", "/", ""},
		{"", "/", ""},
		// Paths not in JoinPath's form are normalised like SplitPath does.
		{"/a/b/", "/a", "b"},
		{"/a//b", "/a", "b"},
		{"//a", "/", "a"},
		{"a/b", "/a", "b"},
		{"/a/./b", "/a", "b"},
		{"/./a", "/", "a"},
	}
	for _, c := range cases {
		dir, name := ParentPath(c.in)
		if dir != c.dir || name != c.name {
			t.Errorf("ParentPath(%q) = (%q, %q), want (%q, %q)", c.in, dir, name, c.dir, c.name)
		}
	}
}

func TestDepth(t *testing.T) {
	if Depth("/") != 0 || Depth("/a") != 1 || Depth("/a/b/c") != 3 {
		t.Errorf("Depth wrong: %d %d %d", Depth("/"), Depth("/a"), Depth("/a/b/c"))
	}
}

func TestIsPathPrefix(t *testing.T) {
	cases := []struct {
		prefix, p string
		want      bool
	}{
		{"/", "/a/b", true},
		{"/a", "/a/b", true},
		{"/a/b", "/a/b", true},
		{"/a/b", "/a/bc", false},
		{"/a/bc", "/a/b", false},
		{"/x", "/a", false},
	}
	for _, c := range cases {
		if got := IsPathPrefix(c.prefix, c.p); got != c.want {
			t.Errorf("IsPathPrefix(%q, %q) = %v, want %v", c.prefix, c.p, got, c.want)
		}
	}
}

// Property: JoinPath(SplitPath(p)) normalises any well-formed join output
// back to itself.
func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(comps []string) bool {
		clean := make([]string, 0, len(comps))
		for _, c := range comps {
			c = strings.ReplaceAll(c, "/", "_")
			if c != "" && c != "." {
				clean = append(clean, c)
			}
		}
		p := JoinPath(clean)
		return reflect.DeepEqual(SplitPath(p), func() []string {
			if len(clean) == 0 {
				return nil
			}
			return clean
		}())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
