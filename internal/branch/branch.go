// Package branch implements Inca branch identifiers.
//
// A branch identifier tells the server where a report's data lives. Per
// Section 3.1.3 of the paper it is "a comma delimited list of name/value
// pairs similar to LDAP distinguished names", e.g.
//
//	dest=siteB,tool=pathload,performance=network,site=siteA,vo=samplegrid
//
// Like an LDAP DN, the leftmost pair is the most specific component and the
// rightmost the most general: the example above names the node
// vo=samplegrid / site=siteA / performance=network / tool=pathload /
// dest=siteB in the depot cache tree.
package branch

import (
	"fmt"
	"slices"
	"strings"
)

// Pair is one name=value component of a branch identifier.
type Pair struct {
	Name  string
	Value string
}

// ID is a parsed branch identifier: Pairs[0] is the most specific (leftmost)
// component. A zero ID (no pairs) addresses the cache root.
type ID struct {
	Pairs []Pair
}

// Parse parses a textual branch identifier. Whitespace around pairs is
// trimmed (controller configs in the wild line-wrap long identifiers).
// An empty string parses to the root ID.
func Parse(s string) (ID, error) { return parse(s, true) }

// Check reports whether s parses, with Parse's error when it does not,
// without building the identifier: a valid branch costs no allocation.
func Check(s string) error {
	_, err := parse(s, false)
	return err
}

func parse(s string, build bool) (ID, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return ID{}, nil
	}
	var id ID
	if build {
		id.Pairs = make([]Pair, 0, strings.Count(s, ",")+1)
	}
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			return ID{}, fmt.Errorf("branch: empty component in %q", s)
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return ID{}, fmt.Errorf("branch: component %q missing '=' in %q", part, s)
		}
		name := strings.TrimSpace(part[:eq])
		value := strings.TrimSpace(part[eq+1:])
		if name == "" {
			return ID{}, fmt.Errorf("branch: empty name in component %q", part)
		}
		if value == "" {
			return ID{}, fmt.Errorf("branch: empty value in component %q", part)
		}
		// part holds no ',' and name ends before the first '=', so a second
		// '=' in value is the only reserved character left to find.
		if strings.IndexByte(value, '=') >= 0 {
			return ID{}, fmt.Errorf("branch: component %q contains reserved character", part)
		}
		if build {
			id.Pairs = append(id.Pairs, Pair{Name: name, Value: value})
		}
	}
	return id, nil
}

// MustParse is Parse that panics on error, for literals in tests and configs.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// New builds an ID from most-specific to most-general pairs.
func New(pairs ...Pair) ID { return ID{Pairs: pairs} }

// String renders the identifier in its canonical wire form.
func (id ID) String() string {
	if len(id.Pairs) == 0 {
		return ""
	}
	// The usual identifier fits the stack buffer, so the string is the one
	// allocation.
	var buf [128]byte
	return string(id.Append(buf[:0]))
}

// Append appends the identifier's canonical wire form to dst.
func (id ID) Append(dst []byte) []byte {
	for i, p := range id.Pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p.Name...)
		dst = append(dst, '=')
		dst = append(dst, p.Value...)
	}
	return dst
}

// IsRoot reports whether the identifier addresses the cache root.
func (id ID) IsRoot() bool { return len(id.Pairs) == 0 }

// Depth returns the number of components.
func (id ID) Depth() int { return len(id.Pairs) }

// Path returns the components ordered from most general to most specific —
// the order in which the depot descends its cache tree.
func (id ID) Path() []Pair {
	out := make([]Pair, len(id.Pairs))
	for i, p := range id.Pairs {
		out[len(id.Pairs)-1-i] = p
	}
	return out
}

// Get returns the value for name and whether it is present.
func (id ID) Get(name string) (string, bool) {
	for _, p := range id.Pairs {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// Equal reports component-wise equality (order matters, as in LDAP DNs).
func (id ID) Equal(other ID) bool {
	if len(id.Pairs) != len(other.Pairs) {
		return false
	}
	for i := range id.Pairs {
		if id.Pairs[i] != other.Pairs[i] {
			return false
		}
	}
	return true
}

// HasSuffix reports whether general is a suffix of id when both are read
// most-specific-first — i.e. whether id lives in the subtree named by
// general. Every ID has the root as a suffix.
func (id ID) HasSuffix(general ID) bool {
	if len(general.Pairs) > len(id.Pairs) {
		return false
	}
	off := len(id.Pairs) - len(general.Pairs)
	for i := range general.Pairs {
		if id.Pairs[off+i] != general.Pairs[i] {
			return false
		}
	}
	return true
}

// Child returns a new identifier one level more specific than id.
func (id ID) Child(name, value string) ID {
	pairs := make([]Pair, 0, len(id.Pairs)+1)
	pairs = append(pairs, Pair{Name: name, Value: value})
	pairs = append(pairs, id.Pairs...)
	return ID{Pairs: pairs}
}

// Parent returns the identifier with the most specific component removed.
// The parent of the root is the root.
func (id ID) Parent() ID {
	if len(id.Pairs) == 0 {
		return ID{}
	}
	return ID{Pairs: append([]Pair(nil), id.Pairs[1:]...)}
}

// Sort orders identifiers by their general-to-specific path, giving a stable
// tree traversal order for cache serialization. It compares Pairs from the
// most general (last) component down, so it allocates nothing.
func Sort(ids []ID) {
	slices.SortFunc(ids, func(x, y ID) int {
		a, b := x.Pairs, y.Pairs
		for i, j := len(a)-1, len(b)-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
			if c := strings.Compare(a[i].Name, b[j].Name); c != 0 {
				return c
			}
			if c := strings.Compare(a[i].Value, b[j].Value); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	})
}
