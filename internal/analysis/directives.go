package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Directive syntax:
//
//	//mediavet:ignore <analyzer> <reason...>
//	    suppresses <analyzer>'s findings on the directive's own line and
//	    on the line directly below it (so it works both as a trailing
//	    comment and as a comment line above the offending statement).
//	    The reason is mandatory; the meta-test in ignore_test.go and the
//	    driver both reject ignores with no reason or an unknown
//	    analyzer name.
const ignoreDirective = "//mediavet:ignore"

// An Ignore is one parsed //mediavet:ignore directive.
type Ignore struct {
	Analyzer  string
	Reason    string
	File      string
	Line      int
	Malformed string // non-empty if the directive could not be parsed
}

// parseIgnore parses the text of a single comment. Returns nil if the
// comment is not an ignore directive at all.
func parseIgnore(text string) *Ignore {
	rest, ok := strings.CutPrefix(text, ignoreDirective)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil // not ours, e.g. //mediavet:ignoreX
	}
	ig := &Ignore{}
	switch fields := strings.Fields(rest); len(fields) {
	case 0:
		ig.Malformed = "missing analyzer name and reason"
	case 1:
		ig.Analyzer, ig.Malformed = fields[0], "missing reason"
	default:
		ig.Analyzer, ig.Reason = fields[0], strings.Join(fields[1:], " ")
	}
	return ig
}

// collectIgnores walks every comment in files and returns the parsed
// ignore directives with their file/line positions resolved.
func collectIgnores(fset *token.FileSet, files []*ast.File) []*Ignore {
	var out []*Ignore
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ig := parseIgnore(c.Text)
				if ig == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				ig.File = pos.Filename
				ig.Line = pos.Line
				out = append(out, ig)
			}
		}
	}
	return out
}

// suppressor answers "is this diagnostic covered by an ignore?" and
// tracks which ignores were actually used so the driver can flag stale
// ones.
type suppressor struct {
	fset  *token.FileSet
	byKey map[string][]*Ignore // "analyzer\x00file:line" -> directives
	used  map[*Ignore]bool
	all   []*Ignore
}

func newSuppressor(fset *token.FileSet, files []*ast.File) *suppressor {
	s := &suppressor{
		fset:  fset,
		byKey: map[string][]*Ignore{},
		used:  map[*Ignore]bool{},
		all:   collectIgnores(fset, files),
	}
	for _, ig := range s.all {
		if ig.Malformed != "" {
			continue
		}
		// A directive covers its own line (trailing comment) and the
		// line below (standalone comment above the statement).
		for _, line := range []int{ig.Line, ig.Line + 1} {
			key := ig.Analyzer + "\x00" + ig.File + ":" + strconv.Itoa(line)
			s.byKey[key] = append(s.byKey[key], ig)
		}
	}
	return s
}

// suppressed reports whether a diagnostic from analyzer at pos is
// covered by an ignore directive, marking the directive used.
func (s *suppressor) suppressed(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	key := analyzer + "\x00" + p.Filename + ":" + strconv.Itoa(p.Line)
	igs := s.byKey[key]
	if len(igs) == 0 {
		return false
	}
	for _, ig := range igs {
		s.used[ig] = true
	}
	return true
}

// unused returns well-formed directives that suppressed nothing, plus
// all malformed ones. The driver reports both so ignores cannot rot.
func (s *suppressor) unused() (stale, malformed []*Ignore) {
	for _, ig := range s.all {
		switch {
		case ig.Malformed != "":
			malformed = append(malformed, ig)
		case !s.used[ig]:
			stale = append(stale, ig)
		}
	}
	return stale, malformed
}
