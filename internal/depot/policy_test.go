package depot

import (
	"reflect"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/rrd"
)

// The three forms of a policy that earlier releases wrote or accepted,
// byte for byte: a snapshot's or checkpoint's POLS section, a WAL policy
// record (after its kind byte) and a client's POST /policy body.
const (
	legacyPOLS = `<policies><policy name="avail" prefix="vo=tg" path="" step="10m0s" granularity="1" history="24h0m0s" manualOnly="true"></policy>` +
		`<policy name="bw" prefix="site=sdsc" path="value,statistic=lowerBound,metric=bandwidth" step="1h0m0s" granularity="2" history="168h0m0s" heartbeat="3h0m0s" manualOnly="false"></policy></policies>`
	legacyWAL    = `<xmlPolicyEntry name="bw" prefix="site=sdsc" path="value,statistic=lowerBound,metric=bandwidth" step="1h0m0s" granularity="2" history="168h0m0s" heartbeat="3h0m0s" manualOnly="false"></xmlPolicyEntry>`
	legacyClient = `<archivalPolicy name="bw" prefix="site=sdsc" path="value,statistic=lowerBound,metric=bandwidth" step="1h0m0s" granularity="2" history="168h0m0s" heartbeat="" cfs="MIN,MAX"></archivalPolicy>`
)

// TestPolicyLegacyForms: each legacy form parses to the Policy the parser
// of its day made of it.
func TestPolicyLegacyForms(t *testing.T) {
	bw := Policy{
		Name: "bw", Prefix: branch.MustParse("site=sdsc"),
		Path:    "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{Step: time.Hour, Granularity: 2, History: 168 * time.Hour, Heartbeat: 3 * time.Hour},
	}
	avail := Policy{
		Name: "avail", Prefix: branch.MustParse("vo=tg"), ManualOnly: true,
		Archive: rrd.ArchivalPolicy{Step: 10 * time.Minute, Granularity: 1, History: 24 * time.Hour},
	}
	pols, err := ParsePolicies([]byte(legacyPOLS))
	if err != nil || !reflect.DeepEqual(pols, []Policy{avail, bw}) {
		t.Fatalf("POLS section: %+v, %v", pols, err)
	}
	if p, err := ParsePolicy([]byte(legacyWAL)); err != nil || !reflect.DeepEqual(p, bw) {
		t.Fatalf("WAL record: %+v, %v", p, err)
	}
	client := bw
	client.Archive.Heartbeat = 0
	client.Archive.CFs = []rrd.CF{rrd.Min, rrd.Max}
	if p, err := ParsePolicy([]byte(legacyClient)); err != nil || !reflect.DeepEqual(p, client) {
		t.Fatalf("client upload: %+v, %v", p, err)
	}
}

// FuzzPolicyRecord: the policy parser reads untrusted bytes (POST /policy
// bodies, WAL records). Whatever it accepts, alone or as a POLS section,
// must survive marshalling and parsing again unchanged.
func FuzzPolicyRecord(f *testing.F) {
	for _, s := range []string{legacyPOLS, legacyWAL, legacyClient} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := ParsePolicy(data); err == nil {
			b, err := MarshalPolicy(p)
			if err != nil {
				t.Fatalf("marshal %+v: %v", p, err)
			}
			q, err := ParsePolicy(b)
			if err != nil || !reflect.DeepEqual(p, q) {
				t.Fatalf("round trip through %s:\n got %+v, %v\nwant %+v", b, q, err, p)
			}
		}
		if ps, err := ParsePolicies(data); err == nil {
			b, err := MarshalPolicies(ps)
			if err != nil {
				t.Fatalf("marshal %+v: %v", ps, err)
			}
			qs, err := ParsePolicies(b)
			if err != nil || !reflect.DeepEqual(ps, qs) {
				t.Fatalf("section round trip through %s:\n got %+v, %v\nwant %+v", b, qs, err, ps)
			}
		}
	})
}
