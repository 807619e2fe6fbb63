package federation

import (
	"bytes"
	"fmt"

	"inca/internal/branch"
)

// StoredReport is one report recovered from a /reports response: how a
// client reads a /reports answer back by branch.
type StoredReport struct {
	ID  branch.ID
	XML []byte
}

// ParseReports decodes a /reports response body into its stored reports.
// The inner report XML is exactly the bytes between the <stored> open tag
// and the closing </stored>; it aliases body.
func ParseReports(body []byte) ([]StoredReport, error) {
	chunks, err := splitReports(body, 0)
	if err != nil {
		return nil, err
	}
	out := make([]StoredReport, 0, len(chunks))
	for _, c := range chunks {
		end := c.raw.end - len("</stored>")
		if end < c.inner || !bytes.HasSuffix(body[:c.raw.end], []byte("</stored>")) {
			return nil, fmt.Errorf("federation: malformed stored element")
		}
		// c.path is general→specific; ID.Pairs lead with the most specific.
		pairs := make([]branch.Pair, len(c.path))
		for i, p := range c.path {
			pairs[len(c.path)-1-i] = p
		}
		out = append(out, StoredReport{ID: branch.New(pairs...), XML: body[c.inner:end]})
	}
	return out, nil
}
