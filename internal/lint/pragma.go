// The //lint:allow pragma path: parsing, hygiene auditing (SL000) and
// suppression. A pragma suppresses a finding of the named check on its own
// line or the line directly below; the reason is mandatory, and a pragma
// that fails to parse is itself a finding so dead or bare suppressions
// cannot accumulate silently.

package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

const pragmaMarker = "//lint:allow"

// pragma is one parsed //lint:allow comment.
type pragma struct {
	line   int
	col    int
	id     string // check being allowed, "" if unparseable
	reason string
	// malformed is the empty string for a valid pragma, otherwise a short
	// diagnosis used in the SL000 message.
	malformed string
}

var pragmaIDRE = regexp.MustCompile(`^SL\d{3}$`)

// parsePragma classifies one comment's text. ok is false when the comment
// is not a //lint:allow pragma at all (ordinary prose); a pragma that IS
// one but is unusable comes back with malformed set.
func parsePragma(text string) (id, reason, malformed string, ok bool) {
	rest, found := strings.CutPrefix(text, pragmaMarker)
	if !found {
		return "", "", "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		// "//lint:allowed" — prose, not a pragma.
		return "", "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", "missing check ID and reason", true
	}
	id = fields[0]
	if !pragmaIDRE.MatchString(id) {
		return id, "", "check ID must look like SLnnn, got " + strconv.Quote(id), true
	}
	if !KnownCheck(id) {
		return id, "", "unknown check " + id, true
	}
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), id))
	if reason == "" {
		return id, "", "suppression requires a non-empty reason", true
	}
	return id, reason, "", true
}

// filePragmas extracts every //lint:allow pragma of a file, valid or not.
func filePragmas(fset *token.FileSet, file *ast.File) []pragma {
	var out []pragma
	for _, group := range file.Comments {
		for _, c := range group.List {
			id, reason, malformed, ok := parsePragma(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			out = append(out, pragma{
				line: pos.Line, col: pos.Column,
				id: id, reason: reason, malformed: malformed,
			})
		}
	}
	return out
}

// pragmaFindings audits a file's pragmas: every malformed one is an SL000
// finding at the pragma itself.
func pragmaFindings(relFile string, pragmas []pragma) []Finding {
	var out []Finding
	for _, p := range pragmas {
		if p.malformed == "" {
			continue
		}
		out = append(out, Finding{
			ID:   IDPragma,
			File: relFile,
			Line: p.line,
			Col:  p.col,
			Message: "malformed //lint:allow pragma (" + p.malformed +
				"): it suppresses nothing",
		})
	}
	return out
}

// suppress marks findings covered by a valid pragma of their check on the
// same line or the line directly above. pragmas is indexed by the finding's
// File. SL000 findings are never suppressible — the audit itself must not
// be silenceable.
func suppress(findings []Finding, pragmas map[string][]pragma) {
	for i := range findings {
		f := &findings[i]
		if f.ID == IDPragma {
			continue
		}
		for _, p := range pragmas[f.File] {
			if p.malformed == "" && p.id == f.ID && (p.line == f.Line || p.line == f.Line-1) {
				f.Suppressed = true
				f.Reason = p.reason
			}
		}
	}
}
