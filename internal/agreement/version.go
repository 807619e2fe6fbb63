// Package agreement implements machine-readable VO service agreements and
// the verification engine that measures resource compliance against them
// (paper Sections 2.2, 3.3, 4.1): package version constraints, unit test
// requirements, service availability (including the two-way cross-site
// metric), default-environment variables, and SoftEnv keys — with results
// rolled up into the Grid / Development / Cluster summary percentages of
// the Figure 4 status pages.
package agreement

import (
	"strconv"
	"strings"
)

// CompareVersions orders dotted, possibly alphanumeric version strings
// ("2.4.3", "1.6.2", "4.2r0", "3.8.1p1"). Numeric runs compare numerically,
// letter runs lexically; missing segments count as zero, so "2.4" == "2.4.0".
func CompareVersions(a, b string) int {
	as, bs := versionTokens(a), versionTokens(b)
	for i := 0; i < len(as) || i < len(bs); i++ {
		var at, bt string
		if i < len(as) {
			at = as[i]
		}
		if i < len(bs) {
			bt = bs[i]
		}
		if c := compareToken(at, bt); c != 0 {
			return c
		}
	}
	return 0
}

// versionTokens splits "4.2r0" into ["4", "2", "r", "0"].
func versionTokens(v string) []string {
	var toks []string
	var cur strings.Builder
	var curDigit bool
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range v {
		switch {
		case r >= '0' && r <= '9':
			if cur.Len() > 0 && !curDigit {
				flush()
			}
			curDigit = true
			cur.WriteRune(r)
		case (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
			if cur.Len() > 0 && curDigit {
				flush()
			}
			curDigit = false
			cur.WriteRune(r)
		default: // separators
			flush()
		}
	}
	flush()
	return toks
}

func compareToken(a, b string) int {
	an, aerr := strconv.Atoi(a)
	bn, berr := strconv.Atoi(b)
	switch {
	case a == "" && b == "":
		return 0
	case a == "":
		// Missing numeric segment counts as 0; missing vs letters sorts
		// before (2.4 < 2.4a).
		if berr == nil {
			an, aerr = 0, nil
		} else {
			return -1
		}
	case b == "":
		if aerr == nil {
			bn, berr = 0, nil
		} else {
			return 1
		}
	}
	switch {
	case aerr == nil && berr == nil:
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		}
		return 0
	case aerr == nil:
		return -1 // numbers sort before letters (2.4.0 < 2.4.rc1)
	case berr == nil:
		return 1
	default:
		return strings.Compare(a, b)
	}
}

// Constraint is a version requirement.
type Constraint struct {
	// Op is one of "", "any", "==", ">=", ">", "<=", "<".
	// Empty and "any" accept every version.
	Op      string
	Version string
}

// versionOps holds every operator a Constraint knows, as a test on
// CompareVersions(installed, required). Parse rejects any other.
var versionOps = map[string]func(cmp int) bool{
	"":    func(int) bool { return true },
	"any": func(int) bool { return true },
	"==":  func(cmp int) bool { return cmp == 0 },
	">=":  func(cmp int) bool { return cmp >= 0 },
	">":   func(cmp int) bool { return cmp > 0 },
	"<=":  func(cmp int) bool { return cmp <= 0 },
	"<":   func(cmp int) bool { return cmp < 0 },
}

// Satisfied reports whether v meets the constraint. An unknown Op is
// never satisfied.
func (c Constraint) Satisfied(v string) bool {
	test, ok := versionOps[c.Op]
	return ok && test(CompareVersions(v, c.Version))
}

// String renders the constraint.
func (c Constraint) String() string {
	switch c.Op {
	case "", "any":
		return "any"
	default:
		return c.Op + c.Version
	}
}
