package branch

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePaperExample(t *testing.T) {
	// The exact identifier from Section 3.1.3.
	id, err := Parse("dest=siteB,tool=pathload,performance=network,site=siteA,vo=samplegrid")
	if err != nil {
		t.Fatal(err)
	}
	if id.Depth() != 5 {
		t.Fatalf("Depth = %d, want 5", id.Depth())
	}
	if v, ok := id.Get("tool"); !ok || v != "pathload" {
		t.Fatalf("Get(tool) = %q,%v", v, ok)
	}
	path := id.Path()
	if path[0] != (Pair{"vo", "samplegrid"}) || path[4] != (Pair{"dest", "siteB"}) {
		t.Fatalf("Path = %v", path)
	}
}

func TestParseWhitespace(t *testing.T) {
	id, err := Parse("  a=1 , b = 2  ")
	if err != nil {
		t.Fatal(err)
	}
	if id.String() != "a=1,b=2" {
		t.Fatalf("String = %q", id.String())
	}
}

func TestParseRoot(t *testing.T) {
	id, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !id.IsRoot() || id.String() != "" {
		t.Fatalf("root = %+v", id)
	}
	if !id.Parent().IsRoot() {
		t.Fatal("Parent of root is not root")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"a=1,,b=2", // empty component
		"noequals", // missing =
		"=v",       // empty name
		"n=",       // empty value
		"a=1,n=",   // trailing empty value
		" = ",      // both empty
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("bad")
}

func TestStringRoundTripProperty(t *testing.T) {
	letters := "abcdefghijklmnopqrstuvwxyz0123456789.-_"
	gen := func(r *rand.Rand) string {
		n := 1 + r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return string(b)
	}
	f := func(seed int64, depth uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := int(depth%12) + 1 // up to ~200 bytes: past String's stack buffer
		pairs := make([]Pair, d)
		for i := range pairs {
			pairs[i] = Pair{Name: gen(r), Value: gen(r)}
		}
		id := New(pairs...)
		back, err := Parse(id.String())
		return err == nil && back.Equal(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a := MustParse("x=1,y=2")
	b := MustParse("x=1,y=2")
	c := MustParse("y=2,x=1")
	d := MustParse("x=1")
	if !a.Equal(b) {
		t.Fatal("identical IDs not equal")
	}
	if a.Equal(c) {
		t.Fatal("order should matter")
	}
	if a.Equal(d) {
		t.Fatal("different depths equal")
	}
}

func TestHasSuffix(t *testing.T) {
	id := MustParse("dest=siteB,tool=pathload,site=siteA,vo=tg")
	cases := []struct {
		general string
		want    bool
	}{
		{"", true},
		{"vo=tg", true},
		{"site=siteA,vo=tg", true},
		{"dest=siteB,tool=pathload,site=siteA,vo=tg", true},
		{"site=siteB,vo=tg", false},
		{"vo=other", false},
		{"x=1,dest=siteB,tool=pathload,site=siteA,vo=tg", false}, // deeper than id
	}
	for _, c := range cases {
		if got := id.HasSuffix(MustParse(c.general)); got != c.want {
			t.Errorf("HasSuffix(%q) = %v, want %v", c.general, got, c.want)
		}
	}
}

func TestChildParent(t *testing.T) {
	root := ID{}
	vo := root.Child("vo", "tg")
	site := vo.Child("site", "sdsc")
	if site.String() != "site=sdsc,vo=tg" {
		t.Fatalf("site = %q", site.String())
	}
	if !site.Parent().Equal(vo) {
		t.Fatalf("Parent = %q", site.Parent().String())
	}
	if !site.HasSuffix(vo) {
		t.Fatal("child lost suffix relation to parent")
	}
}

func TestChildParentInverseProperty(t *testing.T) {
	f := func(names []uint8) bool {
		id := ID{}
		for i, n := range names {
			if i >= 5 {
				break
			}
			id = id.Child("n"+string(rune('a'+n%26)), "v")
		}
		// Walking back up Depth() times returns to root.
		cur := id
		for !cur.IsRoot() {
			next := cur.Parent()
			if next.Depth() != cur.Depth()-1 {
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortOrdersByGeneralPath(t *testing.T) {
	ids := []ID{
		MustParse("r=2,site=b,vo=tg"),
		MustParse("site=a,vo=tg"),
		MustParse("r=1,site=b,vo=tg"),
		MustParse("vo=tg"),
	}
	Sort(ids)
	got := make([]string, len(ids))
	for i, id := range ids {
		got[i] = id.String()
	}
	want := []string{"vo=tg", "site=a,vo=tg", "r=1,site=b,vo=tg", "r=2,site=b,vo=tg"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sort = %v, want %v", got, want)
	}
}

// TestSortAllocatesNothing: Sort compares Pairs in place, so ordering the
// branches of a resource costs no garbage per verification cycle.
func TestSortAllocatesNothing(t *testing.T) {
	ids := make([]ID, 100)
	for i := range ids {
		ids[i] = MustParse(fmt.Sprintf("reporter=r%d,resource=h%d,site=s%d,vo=tg", i%7, i%13, i%3))
	}
	shuffled := make([]ID, len(ids))
	if n := testing.AllocsPerRun(20, func() {
		copy(shuffled, ids)
		Sort(shuffled)
	}); n != 0 {
		t.Fatalf("Sort of %d IDs allocated %v times, want 0", len(ids), n)
	}
}

func TestPathReversesPairs(t *testing.T) {
	id := MustParse("a=1,b=2,c=3")
	p := id.Path()
	if p[0].Name != "c" || p[2].Name != "a" {
		t.Fatalf("Path = %v", p)
	}
	// Path must not alias the internal slice.
	p[0].Name = "zz"
	if id.Pairs[2].Name != "c" {
		t.Fatal("Path aliases internal storage")
	}
}

func TestReservedCharacterRejected(t *testing.T) {
	if _, err := Parse("a=b=c"); err == nil {
		// a=b=c parses name "a", value "b=c" — contains '='; must be rejected
		// so String() round-trips unambiguously.
		t.Fatal("value containing '=' accepted")
	}
}

func TestStringAllocatesFresh(t *testing.T) {
	id := MustParse("a=1,b=2")
	s1 := id.String()
	s2 := id.String()
	if s1 != s2 {
		t.Fatal("String not deterministic")
	}
	if !strings.Contains(s1, "a=1") {
		t.Fatalf("String = %q", s1)
	}
}
