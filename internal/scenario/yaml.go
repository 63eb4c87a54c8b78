package scenario

// A hand-written YAML subset, because the module is dependency-free by
// policy. The subset covers what scenario specs need — block mappings and
// sequences by indentation, inline [a, b] lists, quoted and plain scalars,
// comments — and rejects everything else loudly. Decoding goes through a
// generic tree and then a strict JSON round-trip, so struct mapping,
// unknown-field rejection, and custom unmarshalers (Duration) all come
// from encoding/json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec decodes a YAML (or JSON: a strict superset here) scenario
// spec, rejecting unknown fields, then validates it.
func ParseSpec(data []byte) (*Spec, error) {
	spec := &Spec{}
	if err := unmarshalYAML(data, spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// unmarshalYAML decodes YAML-subset data into v via a strict JSON
// round-trip.
func unmarshalYAML(data []byte, v any) error {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var jsonBytes []byte
	if len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '[') {
		// Raw JSON documents pass straight through.
		jsonBytes = data
	} else {
		tree, err := parseYAML(data)
		if err != nil {
			return err
		}
		jsonBytes, err = json.Marshal(tree)
		if err != nil {
			return err
		}
	}
	dec := json.NewDecoder(bytes.NewReader(jsonBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

type yamlLine struct {
	num    int // 1-based source line
	indent int
	text   string // content, comment-stripped, right-trimmed
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

func (p *yamlParser) more() bool     { return p.pos < len(p.lines) }
func (p *yamlParser) cur() *yamlLine { return &p.lines[p.pos] }
func (p *yamlParser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("scenario: yaml line %d: %s", line, fmt.Sprintf(format, args...))
}

// parseYAML parses the document into a generic tree of map[string]any,
// []any, and scalars.
func parseYAML(data []byte) (any, error) {
	p := &yamlParser{}
	for num, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \t\r")
		content := stripComment(line)
		if strings.TrimSpace(content) == "" {
			continue
		}
		indent := 0
		for indent < len(content) && content[indent] == ' ' {
			indent++
		}
		if indent < len(content) && content[indent] == '\t' {
			return nil, fmt.Errorf("scenario: yaml line %d: tab in indentation (use spaces)", num+1)
		}
		if content == "---" && len(p.lines) == 0 {
			continue // leading document marker
		}
		p.lines = append(p.lines, yamlLine{num: num + 1, indent: indent, text: content[indent:]})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("scenario: empty document")
	}
	root, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.more() {
		return nil, p.errf(p.cur().num, "unexpected content at indent %d", p.cur().indent)
	}
	return root, nil
}

// stripComment removes a trailing comment, respecting quoted strings.
func stripComment(line string) string {
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				if quote == '\'' && i+1 < len(line) && line[i+1] == '\'' {
					i++ // '' escape inside single quotes
					continue
				}
				quote = 0
			} else if quote == '"' && c == '\\' {
				i++
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t'):
			return line[:i]
		}
	}
	return line
}

func (p *yamlParser) parseBlock(indent int) (any, error) {
	line := p.cur()
	if line.indent != indent {
		return nil, p.errf(line.num, "expected indent %d, got %d", indent, line.indent)
	}
	if line.text == "-" || strings.HasPrefix(line.text, "- ") {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for p.more() {
		line := p.cur()
		if line.indent < indent {
			break
		}
		if line.indent > indent {
			return nil, p.errf(line.num, "unexpected indent %d (block is at %d)", line.indent, indent)
		}
		if line.text == "-" || strings.HasPrefix(line.text, "- ") {
			return nil, p.errf(line.num, "sequence item in a mapping block")
		}
		key, rest, err := splitKey(line.text)
		if err != nil {
			return nil, p.errf(line.num, "%v", err)
		}
		if _, dup := m[key]; dup {
			return nil, p.errf(line.num, "duplicate key %q", key)
		}
		if rest != "" {
			val, err := parseScalar(rest, line.num)
			if err != nil {
				return nil, err
			}
			m[key] = val
			p.pos++
			continue
		}
		p.pos++
		if p.more() && p.cur().indent > indent {
			child, err := p.parseBlock(p.cur().indent)
			if err != nil {
				return nil, err
			}
			m[key] = child
		} else {
			m[key] = nil
		}
	}
	return m, nil
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	out := []any{}
	for p.more() {
		line := p.cur()
		if line.indent < indent {
			break
		}
		if line.indent > indent {
			return nil, p.errf(line.num, "unexpected indent %d (sequence is at %d)", line.indent, indent)
		}
		if line.text != "-" && !strings.HasPrefix(line.text, "- ") {
			break
		}
		if line.text == "-" {
			// Item body is the following deeper block (or null).
			p.pos++
			if p.more() && p.cur().indent > indent {
				child, err := p.parseBlock(p.cur().indent)
				if err != nil {
					return nil, err
				}
				out = append(out, child)
			} else {
				out = append(out, nil)
			}
			continue
		}
		rest := strings.TrimLeft(line.text[2:], " ")
		if isMappingStart(rest) {
			// "- key: value": a mapping whose keys sit at the dash offset.
			itemIndent := indent + (len(line.text) - len(rest))
			p.lines[p.pos] = yamlLine{num: line.num, indent: itemIndent, text: rest}
			item, err := p.parseMapping(itemIndent)
			if err != nil {
				return nil, err
			}
			out = append(out, item)
			continue
		}
		val, err := parseScalar(rest, line.num)
		if err != nil {
			return nil, err
		}
		out = append(out, val)
		p.pos++
	}
	return out, nil
}

// isMappingStart reports whether a sequence item body like "key: value"
// or "key:" opens a mapping (vs. a scalar such as "127.0.0.1:7000").
func isMappingStart(s string) bool {
	i := scanScalarEnd(s, ':')
	if i < 0 {
		return false
	}
	return i+1 == len(s) || s[i+1] == ' '
}

// splitKey splits "key: rest" at the first unquoted colon.
func splitKey(text string) (string, string, error) {
	i := scanScalarEnd(text, ':')
	if i < 0 || i >= len(text) || text[i] != ':' {
		return "", "", fmt.Errorf("expected \"key: value\", got %q", text)
	}
	if i+1 < len(text) && text[i+1] != ' ' {
		return "", "", fmt.Errorf("missing space after %q:", text[:i])
	}
	rawKey := strings.TrimSpace(text[:i])
	key, err := unquoteScalar(rawKey)
	if err != nil {
		return "", "", err
	}
	ks, ok := key.(string)
	if !ok {
		ks = fmt.Sprint(key)
	}
	if ks == "" {
		return "", "", fmt.Errorf("empty key in %q", text)
	}
	return ks, strings.TrimSpace(text[i+1:]), nil
}

// scanScalarEnd returns the index of the first occurrence of stop outside
// quotes/brackets, or -1.
func scanScalarEnd(s string, stop byte) int {
	var quote byte
	depth := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				if quote == '\'' && i+1 < len(s) && s[i+1] == '\'' {
					i++
					continue
				}
				quote = 0
			} else if quote == '"' && c == '\\' {
				i++
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == stop && depth == 0:
			return i
		}
	}
	return -1
}

// parseScalar parses a scalar or inline [a, b] list.
func parseScalar(text string, lineNum int) (any, error) {
	if strings.HasPrefix(text, "[") {
		if !strings.HasSuffix(text, "]") {
			return nil, fmt.Errorf("scenario: yaml line %d: unterminated inline list %q", lineNum, text)
		}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		out := []any{}
		if inner == "" {
			return out, nil
		}
		for _, part := range splitInline(inner) {
			v, err := parseScalar(strings.TrimSpace(part), lineNum)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	if strings.HasPrefix(text, "{") {
		if text == "{}" {
			return map[string]any{}, nil
		}
		return nil, fmt.Errorf("scenario: yaml line %d: inline mappings are not supported (use a block)", lineNum)
	}
	v, err := unquoteScalar(text)
	if err != nil {
		return nil, fmt.Errorf("scenario: yaml line %d: %v", lineNum, err)
	}
	return v, nil
}

// splitInline splits an inline list body on top-level commas.
func splitInline(s string) []string {
	var parts []string
	start := 0
	rest := s
	for {
		i := scanScalarEnd(rest, ',')
		if i < 0 {
			parts = append(parts, s[start:])
			return parts
		}
		parts = append(parts, s[start:start+i])
		start += i + 1
		rest = s[start:]
	}
}

// unquoteScalar interprets one scalar token.
func unquoteScalar(s string) (any, error) {
	switch {
	case s == "" || s == "~" || s == "null":
		return nil, nil
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	}
	if s[0] == '"' {
		out, err := strconv.Unquote(s)
		if err != nil {
			return nil, fmt.Errorf("bad double-quoted scalar %s: %v", s, err)
		}
		return out, nil
	}
	if s[0] == '\'' {
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return nil, fmt.Errorf("unterminated single-quoted scalar %s", s)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}
