package depot

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"inca/internal/branch"
)

func reportXMLFor(tag, text string) []byte {
	return []byte(fmt.Sprintf("<%s><v>%s</v></%s>", tag, text, tag))
}

func mustUpdate(t *testing.T, c Cache, id string, payload []byte) {
	t.Helper()
	if _, err := c.Update(branch.MustParse(id), payload); err != nil {
		t.Fatalf("Update(%s): %v", id, err)
	}
}

func TestStreamCacheCanonicalOrdering(t *testing.T) {
	// Insertion order must not affect the document: children are kept in
	// (name, value) order.
	c1 := NewStreamCache()
	c2 := NewStreamCache()
	ids := []string{"r=b,s=2", "r=a,s=1", "r=c,s=1", "r=a,s=2"}
	for _, id := range ids {
		mustUpdate(t, c1, id, reportXMLFor("rep", id))
	}
	for i := len(ids) - 1; i >= 0; i-- {
		mustUpdate(t, c2, ids[i], reportXMLFor("rep", ids[i]))
	}
	if !bytes.Equal(c1.Dump(), c2.Dump()) {
		t.Fatalf("order-dependent documents:\n%s\nvs\n%s", c1.Dump(), c2.Dump())
	}
}

func TestStreamCacheGrowsWithData(t *testing.T) {
	c := NewStreamCache()
	initial := c.Size()
	payload := bytes.Repeat([]byte("x"), 500)
	mustUpdate(t, c, "r=1", []byte("<rep>"+string(payload)+"</rep>"))
	if c.Size() < initial+500 {
		t.Fatalf("Size = %d after 500-byte payload", c.Size())
	}
}

func reportsEqual(a, b []Stored) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s Stored) string { return s.ID.String() + "\x00" + string(s.XML) }
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}

func TestStreamCacheIdempotentReplaceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewStreamCache()
		id := branch.MustParse(fmt.Sprintf("r=%d,s=%d", r.Intn(3), r.Intn(3)))
		payload := reportXMLFor("rep", fmt.Sprintf("%d", r.Int()))
		if _, err := c.Update(id, payload); err != nil {
			return false
		}
		once := c.Dump()
		if _, err := c.Update(id, payload); err != nil {
			return false
		}
		return bytes.Equal(once, c.Dump())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamCacheDumpIsParseable(t *testing.T) {
	c := NewStreamCache()
	for i := 0; i < 10; i++ {
		mustUpdate(t, c, fmt.Sprintf("r=%d,site=s%d", i, i%3), reportXMLFor("rep", fmt.Sprint(i)))
	}
	// The dump must itself be a well-formed document.
	if err := wellFormed(c.Dump()); err != nil {
		t.Fatalf("dump not well-formed: %v\n%s", err, c.Dump())
	}
}

func TestQueryReturnsCopies(t *testing.T) {
	c := NewStreamCache()
	mustUpdate(t, c, "r=1", reportXMLFor("rep", "x"))
	d1 := c.Dump()
	d1[0] = '!'
	if c.Dump()[0] == '!' {
		t.Fatal("Dump aliases internal buffer")
	}
}
