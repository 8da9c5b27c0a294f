package scenario

import (
	"fmt"
	"strings"
)

// A deliberately small YAML-subset parser — the repo is stdlib-only, and
// scenario files need exactly this much YAML: block mappings, block
// lists, scalars, comments, and double-quoted strings. No flow style, no
// anchors, no multi-document streams. Keys keep their file order so the
// strict decoder reports the first unknown key, and every node carries
// its line number so validation errors point at the offending line.

// yNode is one parsed YAML node: *yMap, *yList, or yScalar.
type yNode interface{ lineNo() int }

// yMap is a block mapping with file-ordered keys.
type yMap struct {
	keys []string
	vals map[string]yNode
	line int
}

func (m *yMap) lineNo() int { return m.line }

// get returns a key's value, or nil.
func (m *yMap) get(k string) yNode { return m.vals[k] }

// yList is a block sequence.
type yList struct {
	items []yNode
	line  int
}

func (l *yList) lineNo() int { return l.line }

// yScalar is a leaf value, unquoted.
type yScalar struct {
	val  string
	line int
}

func (s yScalar) lineNo() int { return s.line }

// srcLine is one significant (non-blank, non-comment) input line.
type srcLine struct {
	n      int // 1-based file line
	indent int
	text   string // content after the indent
}

// parseYAML parses a whole document into its root node (a mapping for
// every scenario file).
func parseYAML(src string) (yNode, error) {
	var lines []srcLine
	for i, raw := range strings.Split(src, "\n") {
		// Expand no tabs: scenario files are space-indented only.
		if strings.Contains(raw, "\t") {
			return nil, fmt.Errorf("line %d: tab indentation not supported", i+1)
		}
		trimmed := strings.TrimLeft(raw, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		lines = append(lines, srcLine{n: i + 1, indent: len(raw) - len(trimmed), text: strings.TrimRight(trimmed, " ")})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	node, rest, err := parseBlock(lines, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("line %d: unexpected de-indent", rest[0].n)
	}
	return node, nil
}

// parseBlock parses the run of lines at exactly indent (plus their
// more-indented children), returning the node and the unconsumed tail.
func parseBlock(lines []srcLine, indent int) (yNode, []srcLine, error) {
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("empty block")
	}
	if lines[0].indent != indent {
		return nil, nil, fmt.Errorf("line %d: bad indentation (got %d, want %d)", lines[0].n, lines[0].indent, indent)
	}
	if strings.HasPrefix(lines[0].text, "- ") || lines[0].text == "-" {
		return parseList(lines, indent)
	}
	return parseMap(lines, indent)
}

func parseMap(lines []srcLine, indent int) (yNode, []srcLine, error) {
	m := &yMap{vals: make(map[string]yNode), line: lines[0].n}
	for len(lines) > 0 {
		ln := lines[0]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, nil, fmt.Errorf("line %d: unexpected indentation", ln.n)
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, nil, fmt.Errorf("line %d: list item in mapping", ln.n)
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := m.vals[key]; dup {
			return nil, nil, fmt.Errorf("line %d: duplicate key %q", ln.n, key)
		}
		lines = lines[1:]
		if rest != "" {
			m.keys = append(m.keys, key)
			m.vals[key] = yScalar{val: rest, line: ln.n}
			continue
		}
		// Block value: the following more-indented lines.
		if len(lines) == 0 || lines[0].indent <= indent {
			// "key:" with nothing nested = empty scalar.
			m.keys = append(m.keys, key)
			m.vals[key] = yScalar{val: "", line: ln.n}
			continue
		}
		child, tail, err := parseBlock(lines, lines[0].indent)
		if err != nil {
			return nil, nil, err
		}
		m.keys = append(m.keys, key)
		m.vals[key] = child
		lines = tail
	}
	return m, lines, nil
}

func parseList(lines []srcLine, indent int) (yNode, []srcLine, error) {
	l := &yList{line: lines[0].n}
	for len(lines) > 0 {
		ln := lines[0]
		if ln.indent != indent || (!strings.HasPrefix(ln.text, "- ") && ln.text != "-") {
			if ln.indent >= indent {
				return nil, nil, fmt.Errorf("line %d: expected list item", ln.n)
			}
			break
		}
		// Rewrite the item's head as an indent+2 line and parse the item
		// (plus its continuation lines) as a nested block.
		var item []srcLine
		head := strings.TrimPrefix(ln.text, "-")
		head = strings.TrimPrefix(head, " ")
		if head != "" {
			item = append(item, srcLine{n: ln.n, indent: indent + 2, text: head})
		}
		lines = lines[1:]
		for len(lines) > 0 && lines[0].indent > indent {
			item = append(item, lines[0])
			lines = lines[1:]
		}
		if len(item) == 0 {
			return nil, nil, fmt.Errorf("line %d: empty list item", ln.n)
		}
		// Continuation lines must align with the rewritten head.
		base := item[0].indent
		node, tail, err := parseBlock(item, base)
		if err != nil {
			return nil, nil, err
		}
		if len(tail) > 0 {
			return nil, nil, fmt.Errorf("line %d: bad indentation in list item", tail[0].n)
		}
		l.items = append(l.items, node)
	}
	return l, lines, nil
}

// splitKey splits "key: value", handling quoted values and trailing
// comments. A bare "key:" returns rest "".
func splitKey(ln srcLine) (key, rest string, err error) {
	i := strings.Index(ln.text, ":")
	if i < 0 {
		return "", "", fmt.Errorf("line %d: expected \"key: value\", got %q", ln.n, ln.text)
	}
	key = strings.TrimSpace(ln.text[:i])
	if key == "" {
		return "", "", fmt.Errorf("line %d: empty key", ln.n)
	}
	rest = strings.TrimSpace(ln.text[i+1:])
	rest, err = unquoteScalar(rest, ln.n)
	return key, rest, err
}

// unquoteScalar strips a trailing " # comment" from an unquoted scalar
// and the quotes from a double-quoted one.
func unquoteScalar(s string, line int) (string, error) {
	if strings.HasPrefix(s, "\"") {
		end := strings.LastIndex(s, "\"")
		if end == 0 {
			return "", fmt.Errorf("line %d: unterminated quote", line)
		}
		body := s[1:end]
		tail := strings.TrimSpace(s[end+1:])
		if tail != "" && !strings.HasPrefix(tail, "#") {
			return "", fmt.Errorf("line %d: trailing content after quoted scalar", line)
		}
		return body, nil
	}
	if i := strings.Index(s, " #"); i >= 0 {
		s = strings.TrimSpace(s[:i])
	}
	return s, nil
}
