package controller

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/metrics"
	"inca/internal/report"
	"inca/internal/rrd"
	"inca/internal/wire"
)

// recorder is a depot client that keeps the receipt of its last store and
// counts how each store arrived.
type recorder struct {
	d                *depot.Depot
	last             depot.Receipt
	direct, envelope int
}

func (r *recorder) Store(id branch.ID, reportXML []byte) (depot.Receipt, error) {
	r.direct++
	rec, err := r.d.Store(id, reportXML)
	r.last = rec
	return rec, err
}

func (r *recorder) StoreEnvelope(data []byte) (depot.Receipt, error) {
	r.envelope++
	rec, err := r.d.StoreEnvelope(data)
	r.last = rec
	return rec, err
}

// fuzzPolicies archive every branch: one value path, one success path.
var fuzzPolicies = []depot.Policy{
	{Name: "ok", Path: "ok,probe=x", Archive: rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour}},
	{Name: "up", Archive: rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour}},
}

func policyDepot(t testing.TB, reg *metrics.Registry) *depot.Depot {
	d := depot.NewWithOptions(depot.NewIndexedCache(), depot.Options{Metrics: reg})
	for _, p := range fuzzPolicies {
		if err := d.AddPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func reportAt(at time.Time, ok string) []byte {
	r := report.New("probe.x", "1.0", "login1", at)
	r.Body = report.Branch("probe", "x", report.Leaf("ok", ok))
	data, err := report.Marshal(r)
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzSubmitDirect holds the controller's in-process store to the envelope
// round trip it skips. For any branch string and report bytes, in both
// modes, a controller over one depot and a controller over a second depot
// seen through Enveloped — the envelope path, the oracle — must end in the
// same state after each message: the same ack, the same cache dump, the
// same archived series and the same receipt bar its Unpack time. A report
// at the same branch goes first, so a refused report must also leave the
// entry it would have replaced alone, and an accepted one adds to the
// archive the first report began, however far apart their dates are.
func FuzzSubmitDirect(f *testing.F) {
	canonical := reportAt(t0.Add(2*time.Minute), "1")
	f.Add("probe=x,resource=login1,vo=tg", canonical)
	f.Add("probe=x,resource=login1,vo=tg", bytes.Replace(canonical, []byte("<ok>1</ok>"), []byte("<ok>1\t\r</ok>"), 1))
	f.Add("probe=x,resource=login1,vo=tg", bytes.Replace(canonical, []byte("<ok>1</ok>"), []byte("<ok>1\x01</ok>"), 1))
	f.Add("probe=x,resource=login1,vo=tg", bytes.Replace(canonical, []byte("<ok>1</ok>"), []byte("<ok>1\xff</ok>"), 1))
	f.Add("probe=x,resource=login1,vo=tg", bytes.Replace(canonical, []byte("<ok>1</ok>"), []byte("<ok>1\uFFFE</ok>"), 1))
	f.Add("probe=x\x01,resource=login1,vo=tg", canonical)
	f.Add("probe=x,resource=login1,vo=tg", reportAt(t0.AddDate(200, 0, 0), "1"))
	first := reportAt(t0.Add(time.Minute), "0")
	f.Fuzz(func(t *testing.T, branchText string, reportXML []byte) {
		for _, mode := range []envelope.Mode{envelope.Body, envelope.Attachment} {
			direct := &recorder{d: policyDepot(t, nil)}
			oracle := &recorder{d: policyDepot(t, nil)}
			cd := New(direct, Options{Mode: mode})
			co := New(Enveloped(oracle), Options{Mode: mode})
			for step, data := range [][]byte{first, reportXML} {
				where := fmt.Sprintf("%s, message %d", mode, step)
				msg := func() *wire.Message {
					return &wire.Message{Branch: branchText, Hostname: "login1", Report: append([]byte(nil), data...)}
				}
				direct.last, oracle.last = depot.Receipt{}, depot.Receipt{}
				ad, ao := cd.Handle(msg(), "r"), co.Handle(msg(), "r")
				if *ad != *ao {
					t.Fatalf("%s: ack %+v, envelope path %+v", where, *ad, *ao)
				}
				rd, ro := direct.last, oracle.last
				if !rd.Branch.Equal(ro.Branch) || rd.ReportSize != ro.ReportSize || rd.CacheSize != ro.CacheSize || rd.Added != ro.Added {
					t.Fatalf("%s: receipt %+v, envelope path %+v", where, rd, ro)
				}
				if dd, do := direct.d.Cache().Dump(), oracle.d.Cache().Dump(); !bytes.Equal(dd, do) {
					t.Fatalf("%s: cache\n%q\nenvelope path\n%q", where, dd, do)
				}
				id, err := branch.Parse(branchText)
				if err != nil {
					continue
				}
				for _, p := range fuzzPolicies {
					if sd, so := fetched(direct.d, id, p.Name), fetched(oracle.d, id, p.Name); sd != so {
						t.Fatalf("%s: archive %s %s, envelope path %s", where, p.Name, sd, so)
					}
				}
			}
			if oracle.direct != 0 {
				t.Fatalf("%s: the oracle stored %d reports without an envelope", mode, oracle.direct)
			}
		}
	})
}

// fetched renders the archived series of one branch under one policy, or
// the error fetching it.
func fetched(d *depot.Depot, id branch.ID, policy string) string {
	s, err := d.FetchArchive(id, policy, rrd.Average, t0, t0.Add(time.Hour))
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v", *s)
}

// TestSubmitStoresInProcessWithoutEnvelope: a depot in the controller's
// process takes a report the envelope would hand back unchanged as it is —
// nothing is unpacked — while a report the body escaping would change goes
// through the envelope and is stored as the envelope path stores it.
func TestSubmitStoresInProcessWithoutEnvelope(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := &recorder{d: policyDepot(t, reg)}
	c := New(rec, Options{Mode: envelope.Body})
	id := branch.MustParse("probe=x,resource=login1,vo=tg")
	resp, err := c.Submit(id, "login1", reportAt(t0.Add(time.Minute), "1"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.direct != 1 || rec.envelope != 0 || resp.Unpack != 0 {
		t.Fatalf("canonical report: %d direct, %d enveloped stores, unpack %v; want 1, 0, 0", rec.direct, rec.envelope, resp.Unpack)
	}
	unpacks := reg.Histogram("inca_depot_unpack_seconds", "", nil)
	if n := unpacks.Count(); n != 0 {
		t.Fatalf("%d envelopes unpacked for a report stored in process", n)
	}
	// A control byte: the body escaping writes U+FFFD in its place, so the
	// report takes the envelope and is stored with the replacement.
	raw := []byte("<r><v>1\x01</v></r>")
	if _, err := c.Submit(id, "login1", raw); err != nil {
		t.Fatal(err)
	}
	if rec.envelope != 1 || unpacks.Count() != 1 {
		t.Fatalf("report with a control byte: %d enveloped stores, %d unpacks; want 1, 1", rec.envelope, unpacks.Count())
	}
	stored, _, _ := rec.d.Cache().Query(id)
	if !bytes.Contains(stored, []byte("1\uFFFD")) {
		t.Fatalf("stored %q, want the control byte replaced by U+FFFD", stored)
	}
}
