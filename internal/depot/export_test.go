package depot

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"inca/internal/branch"
)

// Test helpers, shared under their exported names with the external test
// package (caches_test.go and the files beside it that hold the ablation
// caches to the contract).
var (
	ReportXMLFor = reportXMLFor
	MustUpdate   = mustUpdate
	ReportsEqual = reportsEqual
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
