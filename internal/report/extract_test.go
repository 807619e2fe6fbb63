package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

var xt0 = time.Date(2004, 7, 7, 12, 0, 0, 0, time.UTC)

func marshalT(t *testing.T, r *Report) []byte {
	t.Helper()
	data, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func bandwidthReport(t *testing.T, completed bool) []byte {
	t.Helper()
	r := New("grid.network.pathload", "1.8", "h1.sdsc.edu", xt0)
	r.Header.Args = []Arg{{Name: "dest", Value: "h2"}}
	r.Body = Branch("metric", "bandwidth",
		Branch("statistic", "lowerBound",
			Leaf("value", "984.99"), Leaf("units", "Mbps")),
		Branch("statistic", "upperBound",
			Leaf("value", "998.67"), Leaf("units", "Mbps")),
	)
	if !completed {
		r.Fail("probe failed")
	}
	return marshalT(t, r)
}

// checkAgainstDOM asserts that ExtractValues agrees with Parse+Float for
// every path, on the same document.
func checkAgainstDOM(t *testing.T, data []byte, paths []string) {
	t.Helper()
	rep, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	compiled := make([]Path, len(paths))
	for i, p := range paths {
		compiled[i] = MustCompilePath(p)
	}
	ex, err := ExtractValues(data, compiled)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.GMT.Equal(rep.Header.GMT) {
		t.Fatalf("GMT = %v, want %v", ex.GMT, rep.Header.GMT)
	}
	for i, p := range paths {
		var want float64
		var wantOK bool
		if p == "" {
			wantOK = true
			if rep.Succeeded() {
				want = 1
			}
		} else if rep.Body != nil {
			want, wantOK = rep.Body.Float(p)
		}
		if ex.Found[i] != wantOK {
			t.Errorf("path %q: Found = %v, DOM ok = %v", p, ex.Found[i], wantOK)
			continue
		}
		if wantOK && ex.Values[i] != want {
			t.Errorf("path %q: value = %g, DOM = %g", p, ex.Values[i], want)
		}
	}
}

func TestExtractMatchesDOM(t *testing.T) {
	data := bandwidthReport(t, true)
	checkAgainstDOM(t, data, []string{
		"value,statistic=lowerBound,metric=bandwidth",
		"value,statistic=upperBound,metric=bandwidth",
		"value,statistic=lowerBound,metric=bandwidth", // duplicate path
		"units,statistic=lowerBound,metric=bandwidth", // non-numeric leaf
		"value,statistic=missing,metric=bandwidth",    // absent component
		"value,statistic=lowerBound",                  // container-anchored
		"statistic=lowerBound,metric=bandwidth",       // branch target (no text)
		"metric=bandwidth",                            // root target, branch
		"value,statistic=lowerBound,metric=other",     // wrong root id
		"", // success path
	})
}

func TestExtractFailedRun(t *testing.T) {
	data := bandwidthReport(t, false)
	checkAgainstDOM(t, data, []string{"", "value,statistic=lowerBound,metric=bandwidth"})
	ex, err := ExtractValues(data, []Path{MustCompilePath("")})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Completed || ex.Values[0] != 0 {
		t.Fatalf("failed run extracted as success: %+v", ex)
	}
}

func TestExtractNoBacktracking(t *testing.T) {
	// Two <statistic> siblings with no ID: Find commits to the first and
	// never retries the second, even though the second holds the leaf.
	r := New("n", "1", "h", xt0)
	r.Body = Branch("metric", "bw",
		Branch("statistic", "", Leaf("other", "1")),
		Branch("statistic", "", Leaf("value", "42")),
	)
	// Sibling-unique IDs are a Validate concern, not a Marshal one; the
	// document is still well-formed XML.
	data := marshalT(t, r)
	checkAgainstDOM(t, data, []string{"value,statistic,metric=bw"})
}

func TestExtractFirstMatchingIDWins(t *testing.T) {
	// First sibling has the right tag but wrong ID: Find (and the
	// extractor) skip it and commit to the ID match.
	r := New("n", "1", "h", xt0)
	r.Body = Branch("metric", "bw",
		Branch("statistic", "upper", Leaf("value", "7")),
		Branch("statistic", "lower", Leaf("value", "9")),
	)
	data := marshalT(t, r)
	checkAgainstDOM(t, data, []string{
		"value,statistic=lower,metric=bw",
		"value,statistic=upper,metric=bw",
		"value,statistic,metric=bw", // no id: first sibling wins
	})
}

func TestExtractDeepAndPadded(t *testing.T) {
	// A large filler leaf after the target: early exit means the pad is
	// never scanned when the footer is not required.
	r := New("n", "1", "h", xt0)
	r.Body = Branch("a", "1",
		Branch("b", "2", Branch("c", "3", Leaf("value", "3.5"))),
		Leaf("pad", strings.Repeat("x", 1<<16)),
	)
	data := marshalT(t, r)
	checkAgainstDOM(t, data, []string{"value,c=3,b=2,a=1", "value,c=3,b=2"})
}

func TestExtractEmptyBody(t *testing.T) {
	r := New("n", "1", "h", xt0)
	data := marshalT(t, r)
	checkAgainstDOM(t, data, []string{"value,a=1", ""})
}

func TestExtractRejectsNonReports(t *testing.T) {
	if _, err := ExtractValues([]byte("<foreign><data>1</data></foreign>"), []Path{MustCompilePath("")}); err == nil {
		t.Fatal("foreign XML accepted")
	}
	if _, err := ExtractValues([]byte("not xml"), []Path{MustCompilePath("")}); err == nil {
		t.Fatal("junk accepted")
	}
	// Header is mandatory, as in Parse.
	if _, err := ExtractValues([]byte("<incaReport><body></body></incaReport>"),
		[]Path{MustCompilePath("value,a=1")}); err == nil {
		t.Fatal("headerless report accepted")
	}
	// The footer is required whenever a success path is requested.
	headerOnly := "<incaReport><header><reporter><name>n</name></reporter>" +
		"<hostname>h</hostname><gmt>2004-07-07T12:00:00Z</gmt></header><body></body></incaReport>"
	if _, err := ExtractValues([]byte(headerOnly), []Path{MustCompilePath("")}); err == nil {
		t.Fatal("footerless report accepted for a success path")
	}
}

func TestCompilePath(t *testing.T) {
	p := MustCompilePath("")
	if !p.Success() || p.String() != "" {
		t.Fatalf("empty path: %+v", p)
	}
	if _, err := CompilePath("a,,b"); err == nil {
		t.Fatal("empty component accepted")
	}
	p = MustCompilePath("value,statistic=lowerBound,metric=bandwidth")
	if p.Success() || p.String() != "value,statistic=lowerBound,metric=bandwidth" {
		t.Fatalf("path: %+v", p)
	}
}

func TestExtractValueWithIDChildLeaf(t *testing.T) {
	// A leaf that carries an ID child: parseNode treats the remaining
	// character data as the node text; the extractor must agree.
	doc := `<incaReport><header><reporter><name>n</name></reporter>` +
		`<hostname>h</hostname><gmt>2004-07-07T12:00:00Z</gmt></header>` +
		`<body><m><ID>bw</ID><v><ID>x</ID>12.5</v></m></body>` +
		`<footer><completed>true</completed></footer></incaReport>`
	checkAgainstDOM(t, []byte(doc), []string{"v=x,m=bw", "v,m=bw", "v=y,m=bw"})
}

func TestExtractIgnoresUnknownGMT(t *testing.T) {
	r := New("n", "1", "h", xt0)
	r.Body = Branch("a", "1", Leaf("value", "2"))
	data := marshalT(t, r)
	ex, err := ExtractValues(data, []Path{MustCompilePath("value,a=1")})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Found[0] || ex.Values[0] != 2 || math.IsNaN(ex.Values[0]) {
		t.Fatalf("extraction: %+v", ex)
	}
	if !ex.GMT.Equal(xt0) {
		t.Fatalf("GMT = %v", ex.GMT)
	}
}

func paddedSuccessReport(t *testing.T, completed bool) []byte {
	t.Helper()
	r := New("grid.network.pathload", "1.8", "h1.sdsc.edu", xt0)
	r.Body = Branch("metric", "bandwidth",
		Branch("statistic", "lowerBound",
			Leaf("value", "984.99"), Leaf("units", "Mbps")),
		Branch("statistic", "upperBound",
			Leaf("value", "998.67"), Leaf("units", "Mbps")),
		Branch("detail", "trace",
			Leaf("log", strings.Repeat("hop=3 rtt=0.8ms loss=0 ", 400))),
	)
	if !completed {
		r.Fail("probe failed")
	}
	return marshalT(t, r)
}

func TestExtractFooterJump(t *testing.T) {
	// Success path + leaf paths that settle at the top of the body: the
	// scan must skip the trailing detail subtree to the body's end tag,
	// read the footer there and still agree with the DOM on every value.
	for _, completed := range []bool{true, false} {
		data := paddedSuccessReport(t, completed)
		checkAgainstDOM(t, data, []string{
			"",
			"value,statistic=lowerBound,metric=bandwidth",
			"value,statistic=upperBound,metric=bandwidth",
			"value,statistic=median,metric=bandwidth", // never matches: no jump
		})
	}
}

func TestExtractFooterJumpDisabledByComment(t *testing.T) {
	// A comment holding a literal "</body>" is not canonical: the
	// extraction reads the written payload, which drops the comment; and
	// a settled body is read to its own end tag, so no "</body>" in the
	// document could misplace the footer anyway.
	data := paddedSuccessReport(t, true)
	idx := bytes.Index(data, []byte("<detail>"))
	if idx < 0 {
		t.Fatal("no detail element in template")
	}
	var doc []byte
	doc = append(doc, data[:idx]...)
	doc = append(doc, []byte("<!-- trailing </body> decoy -->")...)
	doc = append(doc, data[idx:]...)
	checkAgainstDOM(t, doc, []string{
		"",
		"value,statistic=lowerBound,metric=bandwidth",
		"value,statistic=upperBound,metric=bandwidth",
	})
}

func TestExtractPrefixedBody(t *testing.T) {
	// A prefixed body is read like any other: a scan settled in it skips
	// to the body's own end tag, past the unprefixed <body> inside it, and
	// reads the footer there.
	doc := strings.Replace(fuzzReportHead, "<incaReport>", `<incaReport xmlns:x="u">`, 1) +
		"<x:body><a><body></body><v>1</v></a></x:body>" + fuzzReportFoot
	checkAgainstDOM(t, []byte(doc), []string{"v,a", ""})
}

func TestExtractSettledBodyEndsAtItsEndTag(t *testing.T) {
	// A literal "</body>" after the point where the values settle that
	// does not close the body being read — in a later section, in a
	// second root, inside a prefixed body — is no place to resume: the
	// scan reads the body to its own end tag and reads the footer after
	// it, as Parse + Find does.
	for _, doc := range []string{
		fuzzReportHead + `<body><a><v>1</v></a></body><x><y><body></body></y></x>` + fuzzReportFoot,
		fuzzReportHead + `<body><a><v>1</v></a></body>` + fuzzReportFoot + `<r><x><body></body></x></r>`,
		strings.Replace(fuzzReportHead, "<incaReport>", `<incaReport xmlns:x="u">`, 1) +
			`<x:body><a><v>1</v><body></body></a></x:body>` + fuzzReportFoot,
	} {
		checkAgainstDOM(t, []byte(doc), []string{"v,a", ""})
		checkAgainstDOM(t, []byte(doc), []string{"v,a"})
		checkAgainstDOM(t, []byte(doc), []string{""})
	}
}
