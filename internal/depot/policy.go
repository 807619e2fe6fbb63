package depot

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"time"

	"inca/internal/branch"
	"inca/internal/rrd"
)

// A policy has one wire form: an element whose attributes carry every
// Policy field. A POST /policy body, Client.UploadPolicy, each child of a
// snapshot's or checkpoint's POLS section or of a GET /policy answer, and
// the WAL's policy record all go through MarshalPolicy and ParsePolicy.
// The parser takes any element name, so every form earlier releases wrote
// or accepted still reads: the <policy> children of POLS, the WAL record
// whose element encoding/xml named after the Go type that wrote it, and a
// client's <archivalPolicy> with empty heartbeat and cfs.
type policyAttrs struct {
	Name        string `xml:"name,attr"`
	Prefix      string `xml:"prefix,attr"`
	Path        string `xml:"path,attr"`
	Step        string `xml:"step,attr"`
	Granularity int    `xml:"granularity,attr"`
	History     string `xml:"history,attr"`
	Heartbeat   string `xml:"heartbeat,attr,omitempty"`
	// CFs is a comma-separated consolidation function list (default
	// AVERAGE).
	CFs        string `xml:"cfs,attr,omitempty"`
	ManualOnly bool   `xml:"manualOnly,attr,omitempty"`
}

// policySection is the POLS section of a snapshot or checkpoint.
type policySection struct {
	XMLName  xml.Name      `xml:"policies"`
	Policies []policyAttrs `xml:"policy"`
}

// policyElement names a lone policy record: the name a POST /policy body
// has always carried, which servers older than this codec require.
var policyElement = xml.StartElement{Name: xml.Name{Local: "archivalPolicy"}}

// MarshalPolicy writes p's wire form.
func MarshalPolicy(p Policy) ([]byte, error) {
	var buf bytes.Buffer
	err := xml.NewEncoder(&buf).EncodeElement(attrsOf(p), policyElement)
	return buf.Bytes(), err
}

// ParsePolicy reads a policy's wire form.
func ParsePolicy(data []byte) (Policy, error) {
	var a policyAttrs
	if err := xml.Unmarshal(data, &a); err != nil {
		return Policy{}, fmt.Errorf("depot: policy: %w", err)
	}
	return a.policy()
}

// MarshalPolicies writes a policy set as a <policies> list of policy
// records: a snapshot's or checkpoint's POLS section, and GET /policy.
func MarshalPolicies(ps []Policy) ([]byte, error) {
	var s policySection
	for _, p := range ps {
		s.Policies = append(s.Policies, attrsOf(p))
	}
	return xml.Marshal(s)
}

// ParsePolicies reads a <policies> list.
func ParsePolicies(data []byte) ([]Policy, error) {
	var s policySection
	if err := xml.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("depot: policies: %w", err)
	}
	ps := make([]Policy, len(s.Policies))
	for i, a := range s.Policies {
		p, err := a.policy()
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

func attrsOf(p Policy) policyAttrs {
	a := policyAttrs{
		Name: p.Name, Prefix: p.Prefix.String(), Path: p.Path,
		Step: p.Archive.Step.String(), Granularity: p.Archive.Granularity,
		History: p.Archive.History.String(), ManualOnly: p.ManualOnly,
	}
	if p.Archive.Heartbeat != 0 {
		a.Heartbeat = p.Archive.Heartbeat.String()
	}
	names := make([]string, len(p.Archive.CFs))
	for i, cf := range p.Archive.CFs {
		names[i] = cf.String()
	}
	a.CFs = strings.Join(names, ",")
	return a
}

func (a policyAttrs) policy() (Policy, error) {
	fail := func(attr string, err error) (Policy, error) {
		return Policy{}, fmt.Errorf("depot: policy %s %s: %w", a.Name, attr, err)
	}
	prefix, err := branch.Parse(a.Prefix)
	if err != nil {
		return fail("prefix", err)
	}
	arch := rrd.ArchivalPolicy{Granularity: a.Granularity}
	if arch.Step, err = time.ParseDuration(a.Step); err != nil {
		return fail("step", err)
	}
	if arch.History, err = time.ParseDuration(a.History); err != nil {
		return fail("history", err)
	}
	if a.Heartbeat != "" {
		if arch.Heartbeat, err = time.ParseDuration(a.Heartbeat); err != nil {
			return fail("heartbeat", err)
		}
	}
	if a.CFs != "" {
		for _, s := range strings.Split(a.CFs, ",") {
			cf, err := rrd.ParseCF(strings.TrimSpace(s))
			if err != nil {
				return fail("cfs", err)
			}
			arch.CFs = append(arch.CFs, cf)
		}
	}
	return Policy{Name: a.Name, Prefix: prefix, Path: a.Path, Archive: arch, ManualOnly: a.ManualOnly}, nil
}
