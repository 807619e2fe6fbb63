package depot

import (
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/rrd"
)

// TestPublisherObservesCommits checks the change-feed hook fires exactly
// once per committed mutation, after the commit, with the right kind —
// and that a detached depot publishes nothing.
func TestPublisherObservesCommits(t *testing.T) {
	d := New(nil)
	defer d.Close()

	var changes []Change
	d.SetPublisher(func(c Change) {
		// The hook runs synchronously on the store path; copy what we
		// keep, as real subscribers (the feed hub) do.
		c.Report = append([]byte(nil), c.Report...)
		changes = append(changes, c)
	})

	id := branch.MustParse("tool=probe,site=sdsc")
	at := time.Now().Truncate(time.Minute)
	report := reportWithValue(t, at, 42, true)
	if _, err := d.Store(id, report); err != nil {
		t.Fatalf("store: %v", err)
	}
	pol := Policy{
		Name:    "avail",
		Prefix:  branch.MustParse("site=sdsc"),
		Archive: rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour},
	}
	if err := d.AddPolicy(pol); err != nil {
		t.Fatalf("add policy: %v", err)
	}
	if err := d.ArchiveUpdate(id, "avail", at.Add(time.Minute), 1); err != nil {
		t.Fatalf("archive update: %v", err)
	}

	if len(changes) != 3 {
		t.Fatalf("want 3 changes, got %d: %+v", len(changes), changes)
	}
	if changes[0].Kind != ChangeReport || !changes[0].Branch.Equal(id) || string(changes[0].Report) != string(report) {
		t.Fatalf("report change wrong: %+v", changes[0])
	}
	if changes[1].Kind != ChangePolicy || string(changes[1].Report) != "avail" {
		t.Fatalf("policy change wrong: %+v", changes[1])
	}
	if changes[2].Kind != ChangeManual || string(changes[2].Report) != "avail" || !changes[2].Branch.Equal(id) {
		t.Fatalf("manual change wrong: %+v", changes[2])
	}

	// Failed commits publish nothing.
	n := len(changes)
	if err := d.AddPolicy(pol); err == nil {
		t.Fatalf("duplicate policy should fail")
	}
	if err := d.ArchiveUpdate(id, "nope", at, 1); err == nil {
		t.Fatalf("unknown policy should fail")
	}
	if len(changes) != n {
		t.Fatalf("failed commits published: %+v", changes[n:])
	}

	// Detach.
	d.SetPublisher(nil)
	if _, err := d.Store(id, report); err != nil {
		t.Fatalf("store: %v", err)
	}
	if len(changes) != n {
		t.Fatalf("detached publisher still called")
	}
}
