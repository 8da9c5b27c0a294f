package namespace

import "strings"

// NextComponent returns the first path component of p that starts at or
// after byte offset off, and the offset just past it — where the walk
// continues. Empty and "." segments are skipped; ok is false when no
// component is left. It is how a path is walked without materialising
// its components.
func NextComponent(p string, off int) (name string, end int, ok bool) {
	for off < len(p) {
		if p[off] == '/' {
			off++
			continue
		}
		end = off
		for end < len(p) && p[end] != '/' {
			end++
		}
		if name = p[off:end]; name != "." {
			return name, end, true
		}
		off = end
	}
	return "", len(p), false
}

// SplitPath splits an absolute slash-separated path into its components,
// ignoring empty segments. "/" yields an empty slice; "/a//b/" yields
// ["a", "b"]. Relative paths are treated as rooted at "/".
func SplitPath(p string) []string {
	var out []string
	for off := 0; ; {
		name, end, ok := NextComponent(p, off)
		if !ok {
			return out
		}
		if out == nil {
			out = make([]string, 0, strings.Count(p[off:], "/")+1)
		}
		out, off = append(out, name), end
	}
}

// JoinPath assembles path components into an absolute path.
func JoinPath(components []string) string {
	if len(components) == 0 {
		return "/"
	}
	return "/" + strings.Join(components, "/")
}

// ParentPath returns the parent directory of an absolute path, and the final
// component. ParentPath("/a/b/c") == ("/a/b", "c"). The parent of "/" is "/"
// with an empty name. A path already in JoinPath's form — every SDK call's
// — is answered with two substrings of p.
func ParentPath(p string) (dir, name string) {
	// prev is where the last component's predecessor ends; canonical says
	// every component so far began exactly one slash after the one before.
	prev, last, canonical := 0, 0, true
	for off := 0; ; {
		c, end, ok := NextComponent(p, off)
		if !ok {
			break
		}
		start := end - len(c)
		canonical = canonical && start == last+1
		name, prev, last, off = c, last, end, end
	}
	switch {
	case name == "":
		return "/", ""
	case !canonical:
		comps := SplitPath(p)
		return JoinPath(comps[:len(comps)-1]), name
	case prev == 0:
		return "/", name
	}
	return p[:prev], name
}

// Depth returns the number of components of an absolute path: Depth("/")
// is 0, Depth("/a/b") is 2.
func Depth(p string) int { return len(SplitPath(p)) }
