package agreement

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCompareVersionsBasic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2.4.3", "2.4.3", 0},
		{"2.4.3", "2.4.0", 1},
		{"2.4.0", "2.4.3", -1},
		{"2.4", "2.4.0", 0},
		{"2.10", "2.9", 1}, // numeric, not lexical
		{"10.0", "9.9", 1},
		{"1.2.5", "1.2.5p1", -1}, // patch suffix sorts after
		{"4.2r0", "4.2r1", -1},
		{"3.8.1p1", "3.8.1", 1},
		{"1.6.2", "1.6.2", 0},
		{"2.4.rc1", "2.4.0", 1}, // letters sort after numbers
		{"", "", 0},
		{"1", "", 1},
	}
	for _, c := range cases {
		if got := CompareVersions(c.a, c.b); got != c.want {
			t.Errorf("CompareVersions(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareVersionsAntisymmetricProperty(t *testing.T) {
	versions := []string{"1.0", "2.4.3", "2.4", "4.2r0", "3.8.1p1", "10.2", "0.9.9", "2.4.rc1"}
	f := func(ai, bi uint8) bool {
		a := versions[int(ai)%len(versions)]
		b := versions[int(bi)%len(versions)]
		return CompareVersions(a, b) == -CompareVersions(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVersionsTransitivityOnChain(t *testing.T) {
	chain := []string{"0.9", "1.0", "1.0.1", "1.2", "1.2.5", "1.2.5p1", "2.0", "2.4.rc1", "10.0"}
	for i := 1; i < len(chain); i++ {
		if CompareVersions(chain[i-1], chain[i]) >= 0 {
			t.Errorf("chain order violated: %q >= %q", chain[i-1], chain[i])
		}
	}
}

func TestConstraintSatisfied(t *testing.T) {
	cases := []struct {
		c    Constraint
		v    string
		want bool
	}{
		{Constraint{}, "anything", true},
		{Constraint{Op: "any"}, "1.0", true},
		{Constraint{Op: "==", Version: "2.4.3"}, "2.4.3", true},
		{Constraint{Op: "==", Version: "2.4.3"}, "2.4.4", false},
		{Constraint{Op: ">=", Version: "2.4.0"}, "2.4.3", true},
		{Constraint{Op: ">=", Version: "2.4.0"}, "2.4.0", true},
		{Constraint{Op: ">=", Version: "2.4.0"}, "2.3.9", false},
		{Constraint{Op: ">", Version: "1.0"}, "1.0", false},
		{Constraint{Op: "<=", Version: "3.0"}, "3.0", true},
		{Constraint{Op: "<", Version: "3.0"}, "2.9", true},
		{Constraint{Op: "???", Version: "1"}, "1", false},
	}
	for _, c := range cases {
		if got := c.c.Satisfied(c.v); got != c.want {
			t.Errorf("%s.Satisfied(%q) = %v, want %v", c.c, c.v, got, c.want)
		}
	}
}

func TestConstraintString(t *testing.T) {
	if (Constraint{}).String() != "any" {
		t.Fatal("empty constraint string")
	}
	if (Constraint{Op: ">=", Version: "2.4.0"}).String() != ">=2.4.0" {
		t.Fatal("constraint string")
	}
}

func TestAgreementXMLRoundTrip(t *testing.T) {
	ag := TeraGrid()
	data, err := Marshal(ag)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	if back.Name != ag.Name || back.VO != ag.VO || back.MaxAge != ag.MaxAge {
		t.Fatalf("metadata round trip: %+v", back)
	}
	if len(back.Packages) != len(ag.Packages) || len(back.Services) != len(ag.Services) ||
		len(back.Env) != len(ag.Env) || len(back.SoftEnv) != len(ag.SoftEnv) {
		t.Fatalf("cardinality round trip: %d/%d %d/%d %d/%d %d/%d",
			len(back.Packages), len(ag.Packages), len(back.Services), len(ag.Services),
			len(back.Env), len(ag.Env), len(back.SoftEnv), len(ag.SoftEnv))
	}
	for i := range ag.Packages {
		if back.Packages[i] != ag.Packages[i] {
			t.Fatalf("package %d: %+v != %+v", i, back.Packages[i], ag.Packages[i])
		}
	}
}

func TestAgreementParseErrors(t *testing.T) {
	cases := []string{
		"not xml",
		`<serviceAgreement/>`, // no name
		`<serviceAgreement name="x" maxAge="soon"/>`,
		`<serviceAgreement name="x"><package name="p" category="Bogus"/></serviceAgreement>`,
		`<serviceAgreement name="x"><service name="s" category="Nope"/></serviceAgreement>`,
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("Parse accepted %q", c)
		}
	}
}

// TestParseRejectsSilentFailures: an operator typo that would otherwise
// parse and quietly fail a whole column, or disable the staleness check,
// is refused when the agreement is read.
func TestParseRejectsSilentFailures(t *testing.T) {
	cases := []struct {
		name, xml string
		ok        bool
	}{
		{"swapped op", `<serviceAgreement name="x"><package name="p" category="Grid" versionOp="=>" version="1"/></serviceAgreement>`, false},
		{"single equals", `<serviceAgreement name="x"><package name="p" category="Grid" versionOp="=" version="1"/></serviceAgreement>`, false},
		{"negative maxAge", `<serviceAgreement name="x" maxAge="-1h"/>`, false},
		{"known op", `<serviceAgreement name="x"><package name="p" category="Grid" versionOp="&lt;=" version="1"/></serviceAgreement>`, true},
		{"no op", `<serviceAgreement name="x"><package name="p" category="Grid"/></serviceAgreement>`, true},
		{"any", `<serviceAgreement name="x"><package name="p" category="Grid" versionOp="any"/></serviceAgreement>`, true},
		{"zero maxAge", `<serviceAgreement name="x" maxAge="0s"/>`, true},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.xml)); (err == nil) != c.ok {
			t.Errorf("%s: Parse error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// FuzzParseAgreement: Parse never panics, what it accepts uses only
// operators Constraint knows and a non-negative MaxAge, and an accepted
// agreement survives Marshal and Parse unchanged.
func FuzzParseAgreement(f *testing.F) {
	tg, err := Marshal(TeraGrid())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tg)
	f.Add([]byte(`<serviceAgreement name="x" vo="tg" maxAge="90m"><package name="p" category="Grid" versionOp="=>" version="1"/></serviceAgreement>`))
	f.Add([]byte(`<serviceAgreement name="x" maxAge="-1s"><service name="s" category="Grid" crossSite="true"/><env name="E" value="v" category="Cluster"/><softenv key="@k" category="Development"/></serviceAgreement>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ag, err := Parse(data)
		if err != nil {
			return
		}
		if ag.MaxAge < 0 {
			t.Fatalf("accepted negative MaxAge %v", ag.MaxAge)
		}
		for _, p := range ag.Packages {
			if _, ok := versionOps[p.Version.Op]; !ok {
				t.Fatalf("accepted unknown op %q", p.Version.Op)
			}
		}
		out, err := Marshal(ag)
		if err != nil {
			t.Fatalf("Marshal of an accepted agreement: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-Parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(ag, back) {
			t.Fatalf("round trip changed the agreement:\n%+v\n%+v", ag, back)
		}
	})
}

func TestTeraGridAgreementShape(t *testing.T) {
	ag := TeraGrid()
	// 24 core stack packages minus gm, which reduced hosts legitimately
	// lack.
	if len(ag.Packages) != 23 {
		t.Fatalf("packages = %d, want 23", len(ag.Packages))
	}
	if len(ag.Services) != 4 {
		t.Fatalf("services = %d", len(ag.Services))
	}
	crossSite := 0
	for _, s := range ag.Services {
		if s.CrossSite {
			crossSite++
		}
	}
	if crossSite != 2 {
		t.Fatalf("cross-site services = %d, want 2", crossSite)
	}
	// All packages demand unit tests per the hosting environment contract.
	for _, p := range ag.Packages {
		if !p.UnitTest {
			t.Fatalf("package %s lacks unit test requirement", p.Name)
		}
	}
}
