package query

import (
	"bytes"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/rrd"
)

// TestPolicyRoundTrip takes policies with every field set along the four
// paths a policy crosses — an upload over HTTP, a snapshot, a WAL replay
// and a checkpoint — and asks each depot at the far end for the same
// policies, and for a MIN series of a branch stored only after it came up.
func TestPolicyRoundTrip(t *testing.T) {
	want := []depot.Policy{
		{
			Name: "bw", Prefix: branch.MustParse("site=sdsc"),
			Path: "value,statistic=lowerBound,metric=bandwidth",
			Archive: rrd.ArchivalPolicy{
				Step: time.Hour, Granularity: 2, History: 7 * 24 * time.Hour,
				Heartbeat: 3 * time.Hour, CFs: []rrd.CF{rrd.Min, rrd.Max},
			},
		},
		{
			Name: "summary", Prefix: branch.MustParse("vo=tg"), Path: "value",
			Archive: rrd.ArchivalPolicy{
				Step: 10 * time.Minute, Granularity: 3, History: 24 * time.Hour,
				Heartbeat: 25 * time.Minute, CFs: []rrd.CF{rrd.Last, rrd.Average},
			},
			ManualOnly: true,
		},
	}
	addAll := func(t *testing.T, d *depot.Depot) {
		t.Helper()
		for _, p := range want {
			if err := d.AddPolicy(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// check holds d's policies to want and stores a branch under "bw" that
	// the depot has never seen, so its archive is created from the policy
	// as d holds it.
	check := func(t *testing.T, d *depot.Depot, site string) {
		t.Helper()
		if got := d.Policies(); !reflect.DeepEqual(got, want) {
			t.Fatalf("policies:\n got %+v\nwant %+v", got, want)
		}
		ts := httptest.NewServer(NewServer(d).Handler())
		defer ts.Close()
		c := NewClient(ts.URL)
		id := "tool=pathload,host=" + site + ",site=sdsc"
		for i := 1; i <= 6; i++ {
			if _, err := c.StoreEnvelope(sampleEnvelope(t, id, t0.Add(time.Duration(i)*time.Hour), float64(100*i))); err != nil {
				t.Fatal(err)
			}
		}
		points, err := c.Archive(id, "bw", rrd.Min, t0, t0.Add(7*time.Hour))
		if err != nil {
			t.Fatalf("/archive?cf=MIN: %v", err)
		}
		known := 0
		for _, p := range points {
			if !math.IsNaN(p.Value) {
				known++
			}
		}
		if known == 0 {
			t.Fatalf("/archive?cf=MIN: no known value in %+v", points)
		}
	}

	t.Run("upload", func(t *testing.T) {
		d := depot.New(nil)
		ts := httptest.NewServer(NewServer(d).Handler())
		defer ts.Close()
		for _, p := range want {
			if err := NewClient(ts.URL).UploadPolicy(p); err != nil {
				t.Fatal(err)
			}
		}
		check(t, d, "upload")
	})
	t.Run("snapshot", func(t *testing.T) {
		d := depot.New(nil)
		addAll(t, d)
		var img bytes.Buffer
		if err := d.WriteSnapshot(&img); err != nil {
			t.Fatal(err)
		}
		re, err := depot.ReadSnapshot(&img)
		if err != nil {
			t.Fatal(err)
		}
		check(t, re, "snapshot")
	})
	// restart adds the policies to a disk depot, runs stop on it, closes
	// it and checks the depot the same directory opens to.
	restart := func(t *testing.T, site string, stop func(*depot.Depot) error) {
		dir := t.TempDir()
		open := func() *depot.Depot {
			d, err := depot.OpenDisk(depot.DiskOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		d := open()
		addAll(t, d)
		if err := stop(d); err != nil {
			t.Fatal(err)
		}
		d.Close()
		re := open()
		defer re.Close()
		check(t, re, site)
	}
	// Close writes no checkpoint: the policies come back from the log.
	t.Run("wal", func(t *testing.T) {
		restart(t, "wal", func(*depot.Depot) error { return nil })
	})
	t.Run("checkpoint", func(t *testing.T) {
		restart(t, "checkpoint", (*depot.Depot).Checkpoint)
	})
}
