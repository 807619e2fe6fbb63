package agreement

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"time"
)

// The machine-readable XML form of a service agreement (Section 4.1: "a
// machine-readable version of the service agreement was formatted in XML").

type xmlAgreement struct {
	XMLName  xml.Name     `xml:"serviceAgreement"`
	Name     string       `xml:"name,attr"`
	VO       string       `xml:"vo,attr"`
	MaxAge   string       `xml:"maxAge,attr,omitempty"`
	Packages []xmlPackage `xml:"package"`
	Services []xmlService `xml:"service"`
	Env      []xmlEnv     `xml:"env"`
	SoftEnv  []xmlSoftEnv `xml:"softenv"`
}

type xmlPackage struct {
	Name     string `xml:"name,attr"`
	Category string `xml:"category,attr"`
	Op       string `xml:"versionOp,attr,omitempty"`
	Version  string `xml:"version,attr,omitempty"`
	UnitTest bool   `xml:"unitTest,attr"`
}

type xmlService struct {
	Name      string `xml:"name,attr"`
	Category  string `xml:"category,attr"`
	CrossSite bool   `xml:"crossSite,attr"`
}

type xmlEnv struct {
	Name     string `xml:"name,attr"`
	Value    string `xml:"value,attr,omitempty"`
	Category string `xml:"category,attr"`
}

type xmlSoftEnv struct {
	Key      string `xml:"key,attr"`
	Category string `xml:"category,attr"`
}

// Marshal renders the agreement as XML.
func Marshal(ag *Agreement) ([]byte, error) {
	x := xmlAgreement{Name: ag.Name, VO: ag.VO}
	if ag.MaxAge > 0 {
		x.MaxAge = ag.MaxAge.String()
	}
	for _, p := range ag.Packages {
		x.Packages = append(x.Packages, xmlPackage{
			Name: p.Name, Category: string(p.Category),
			Op: p.Version.Op, Version: p.Version.Version, UnitTest: p.UnitTest,
		})
	}
	for _, s := range ag.Services {
		x.Services = append(x.Services, xmlService{Name: s.Name, Category: string(s.Category), CrossSite: s.CrossSite})
	}
	for _, e := range ag.Env {
		x.Env = append(x.Env, xmlEnv{Name: e.Name, Value: e.Value, Category: string(e.Category)})
	}
	for _, k := range ag.SoftEnv {
		x.SoftEnv = append(x.SoftEnv, xmlSoftEnv{Key: k.Key, Category: string(k.Category)})
	}
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Parse reads the XML form back. It rejects what would otherwise fail
// silently: a versionOp Constraint does not know (every version would
// fail it) and a negative maxAge (the staleness check would be off).
func Parse(data []byte) (*Agreement, error) {
	var x xmlAgreement
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("agreement: %w", err)
	}
	if x.Name == "" {
		return nil, fmt.Errorf("agreement: missing name attribute")
	}
	ag := &Agreement{Name: x.Name, VO: x.VO}
	if x.MaxAge != "" {
		d, err := time.ParseDuration(x.MaxAge)
		if err != nil {
			return nil, fmt.Errorf("agreement: bad maxAge %q: %w", x.MaxAge, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("agreement: negative maxAge %q", x.MaxAge)
		}
		ag.MaxAge = d
	}
	cat := func(s, context string) (Category, error) {
		switch Category(s) {
		case Grid, Development, Cluster:
			return Category(s), nil
		default:
			return "", fmt.Errorf("agreement: unknown category %q for %s", s, context)
		}
	}
	for _, p := range x.Packages {
		c, err := cat(p.Category, p.Name)
		if err != nil {
			return nil, err
		}
		if _, ok := versionOps[p.Op]; !ok {
			return nil, fmt.Errorf("agreement: unknown versionOp %q for %s", p.Op, p.Name)
		}
		ag.Packages = append(ag.Packages, PackageReq{
			Name: p.Name, Category: c,
			Version:  Constraint{Op: p.Op, Version: p.Version},
			UnitTest: p.UnitTest,
		})
	}
	for _, s := range x.Services {
		c, err := cat(s.Category, s.Name)
		if err != nil {
			return nil, err
		}
		ag.Services = append(ag.Services, ServiceReq{Name: s.Name, Category: c, CrossSite: s.CrossSite})
	}
	for _, e := range x.Env {
		c, err := cat(e.Category, e.Name)
		if err != nil {
			return nil, err
		}
		ag.Env = append(ag.Env, EnvReq{Name: e.Name, Value: e.Value, Category: c})
	}
	for _, k := range x.SoftEnv {
		c, err := cat(k.Category, k.Key)
		if err != nil {
			return nil, err
		}
		ag.SoftEnv = append(ag.SoftEnv, SoftEnvReq{Key: k.Key, Category: c})
	}
	return ag, nil
}
