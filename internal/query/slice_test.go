package query

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/federation"
	"inca/internal/rrd"
)

// bwPolicy archives the bandwidth sampleEnvelope reports, hour by hour.
var bwPolicy = depot.Policy{
	Name: "bw", Prefix: branch.MustParse("vo=tg"),
	Path:    "value,statistic=lowerBound,metric=bandwidth",
	Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 24 * time.Hour},
}

// history is one archived series: its /archive or /availability query.
type history struct {
	id    branch.ID
	query string
}

func archiveQuery(id branch.ID, policy string) string {
	return "/archive?" + url.Values{
		"branch": {id.String()}, "policy": {policy}, "cf": {"AVERAGE"},
		"start": {t0.Format(time.RFC3339)}, "end": {t0.Add(12 * time.Hour).Format(time.RFC3339)},
	}.Encode()
}

// knownPoints counts the known values of an /archive CSV.
func knownPoints(csv string) int {
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		if !strings.HasSuffix(line, ",nan") {
			n++
		}
	}
	return n
}

// archiveFederation is a federation holding the history a membership
// change must move: a bandwidth policy and the availability policy
// uploaded through the router, then six hourly samples on every branch —
// stored reports through the router's /store, availability percentages
// archived on each branch's owner as an evaluation cycle does.
func archiveFederation(t *testing.T) (*testFederation, []history) {
	t.Helper()
	tf := newTestFederation(t, 2)
	c := NewClient(tf.fed.URL)
	for _, p := range []depot.Policy{bwPolicy, consumer.AvailabilityPolicy()} {
		if err := c.UploadPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
	var hs []history
	for s := 0; s < 12; s++ {
		id := fmt.Sprintf("tool=pathload,site=s%02d,vo=tg", s)
		for h := 1; h <= 6; h++ {
			if _, err := c.StoreEnvelope(sampleEnvelope(t, id, t0.Add(time.Duration(h)*time.Hour), float64(100*s+h))); err != nil {
				t.Fatal(err)
			}
		}
		hs = append(hs, history{branch.MustParse(id), archiveQuery(branch.MustParse(id), bwPolicy.Name)})
	}
	window := "&start=" + t0.Format(time.RFC3339) + "&end=" + t0.Add(12*time.Hour).Format(time.RFC3339) + "&format=json"
	for r := 1; r <= 4; r++ {
		for _, cat := range []agreement.Category{agreement.Categories[0], "Total"} {
			res := fmt.Sprintf("r%d", r)
			id := branch.MustParse(fmt.Sprintf("category=%s,resource=%s", cat, res))
			owner := tf.depots[tf.router.Ring().Owner(id)]
			for h := 1; h <= 6; h++ {
				if err := owner.ArchiveUpdate(id, consumer.AvailabilityPolicyName, t0.Add(time.Duration(h)*consumer.AvailabilityPolicy().Archive.Step), float64(100-r-h)); err != nil {
					t.Fatal(err)
				}
			}
			hs = append(hs,
				history{id, archiveQuery(id, consumer.AvailabilityPolicyName)},
				history{id, "/availability?resource=" + res + "&category=" + url.QueryEscape(string(cat)) + window})
		}
	}
	return tf, hs
}

// sameHistory fails unless every series in hs that from holds answers on
// to with the same bytes; at least one must.
func sameHistory(t *testing.T, when, from, to string, hs []history) {
	t.Helper()
	n := 0
	for _, h := range hs {
		status, _, want := get(t, from, h.query, "")
		archive := strings.HasPrefix(h.query, "/archive")
		if status == http.StatusNotFound || !archive && !bytes.Contains(want, []byte(`"samples":6`)) {
			continue // a series from does not hold
		}
		n++
		if archive && knownPoints(string(want)) != 6 {
			t.Fatalf("%s: the old holder's %s has %d known points, want 6", when, h.id, knownPoints(string(want)))
		}
		if status, _, got := get(t, to, h.query, ""); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s on the new holder: %d\n%s\nwant\n%s", when, h.query, status, got, want)
		}
	}
	if n == 0 {
		t.Fatalf("%s: the old holder holds none of the series", when)
	}
}

// postAdmin posts an administrative call and returns its answer, failing
// unless it is 200.
func postAdmin(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Post(base+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", path, resp.Status, body)
	}
	return string(body)
}

// owned is the part of hs whose branches the shard named owner holds
// under ring.
func owned(hs []history, ring *federation.Ring, owner string) []history {
	var out []history
	for _, h := range hs {
		if ring.Owner(h.id) == owner {
			out = append(out, h)
		}
	}
	return out
}

// TestFederatedArchiveMovesWithSlice: the archive's history moves with a
// membership change. After a catch-up, the promotion of the caught-up
// follower, a join with migration and a graceful leave, the new holder of
// every moved branch answers /archive and /availability with the old
// holder's bytes.
func TestFederatedArchiveMovesWithSlice(t *testing.T) {
	tf, hs := archiveFederation(t)
	url1 := tf.router.Shards()[1].BaseURL()
	name1 := tf.router.Shards()[1].Name()

	follower := httptest.NewServer(NewServer(depot.New(nil)).Handler())
	t.Cleanup(follower.Close)
	answer := postAdmin(t, tf.fed.URL, "/federation/replicate?catchup=1&shard="+name1+"&follower="+url.QueryEscape("follower1/"+follower.URL))
	if !strings.Contains(answer, " 0 kept") {
		t.Fatalf("catch-up kept archives: %s", answer)
	}
	moved := owned(hs, tf.router.Ring(), name1)
	sameHistory(t, "after catch-up", url1, follower.URL, moved)

	postAdmin(t, tf.fed.URL, "/federation/promote?shard="+name1)
	sameHistory(t, "after promotion", url1, tf.fed.URL, moved)

	holder := func() map[string]string {
		urls := make(map[string]string)
		for _, s := range tf.router.Shards() {
			urls[s.Name()] = s.BaseURL()
		}
		return urls
	}
	before, ring := holder(), tf.router.Ring()
	joined := httptest.NewServer(NewServer(depot.New(nil)).Handler())
	t.Cleanup(joined.Close)
	postAdmin(t, tf.fed.URL, "/federation/join?migrate=1&shard="+url.QueryEscape("shard9/"+joined.URL))
	for name, from := range before {
		var claimed []history
		for _, h := range owned(hs, ring, name) {
			if tf.router.Ring().Owner(h.id) == "shard9" {
				claimed = append(claimed, h)
			}
		}
		if len(claimed) > 0 {
			sameHistory(t, "after join", from, joined.URL, claimed)
		}
	}

	before, ring = holder(), tf.router.Ring()
	leaving := tf.router.Shards()[0].Name()
	postAdmin(t, tf.fed.URL, "/federation/leave?migrate=1&shard="+leaving)
	after := holder()
	for _, h := range owned(hs, ring, leaving) {
		sameHistory(t, "after leave", before[leaving], after[tf.router.Ring().Owner(h.id)], []history{h})
	}
}

// hookSlice runs before ahead of, and after behind, h's answer to a
// /slice request of method.
func hookSlice(h http.Handler, method string, before, after func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hooked := r.URL.Path == "/slice" && r.Method == method
		if hooked && before != nil {
			before()
		}
		h.ServeHTTP(w, r)
		if hooked && after != nil {
			after()
		}
	})
}

var keptRE = regexp.MustCompile(` (\d+) kept\)`)

// TestCatchUpSampleOnce: a sample the router takes while a catch-up runs
// appears exactly once in the follower's archive, whichever of the image
// and the tee carries it, and is never lost. An archive the follower kept
// is healed by running the catch-up again.
func TestCatchUpSampleOnce(t *testing.T) {
	const id = "tool=pathload,site=s00,vo=tg"
	sample := func(h int) []byte { return sampleEnvelope(t, id, t0.Add(time.Duration(h)*time.Hour), float64(h)) }
	query := archiveQuery(branch.MustParse(id), bwPolicy.Name)
	for _, tc := range []struct {
		name string
		// held is how many hours the follower holds before the attach.
		held int
		// hooks returns what runs before and after the primary answers
		// GET /slice and after the follower answers POST /slice.
		hooks    func(primary, follower *depot.Depot, fed string) (primaryGet, primaryAfter, followerAfter func())
		kept     string
		release  func(primary *depot.Depot)
		etagMove bool
		// again, when set, is what a second catch-up, run with no hook,
		// answers kept.
		again string
	}{{
		// The primary's image lacks the sample, and the tee brings it to
		// the follower after the install.
		name: "tee after the install", held: 3, kept: "0", etagMove: true,
		hooks: func(primary, follower *depot.Depot, _ string) (func(), func(), func()) {
			var tee []byte
			return nil, func() {
					primary.StoreEnvelope(sample(7))
					tee = sample(7) // the follower's next slice is the catch-up's
				}, func() {
					if tee != nil {
						follower.StoreEnvelope(tee)
					}
				}
		},
	}, {
		// The router takes the sample after the image is read; its tee
		// reaches the follower before the install, so the follower's
		// archive is ahead of the image and stays.
		name: "tee before the install", held: 6, kept: "1",
		hooks: func(_, _ *depot.Depot, fed string) (func(), func(), func()) {
			return nil, func() { NewClient(fed).StoreEnvelope(sample(7)) }, nil
		},
	}, {
		// As above with a follower that holds no history: the archive it
		// keeps has the tee's sample alone, and only a second catch-up,
		// whose image holds the sample too, installs the primary's.
		name: "tee before the install, then again", held: 0, kept: "1", again: "0",
		hooks: func(_, _ *depot.Depot, fed string) (func(), func(), func()) {
			return nil, func() { NewClient(fed).StoreEnvelope(sample(7)) }, nil
		},
	}, {
		// The primary's delivery is held: the follower applies the sample
		// before the primary's image is read, which then lacks it.
		name: "primary held", held: 6, kept: "1",
		hooks: func(_, follower *depot.Depot, _ string) (func(), func(), func()) {
			return func() { follower.StoreEnvelope(sample(7)) }, nil, nil
		},
		release: func(primary *depot.Depot) { primary.StoreEnvelope(sample(7)) },
	}} {
		t.Run(tc.name, func(t *testing.T) {
			primary, follower := depot.New(nil), depot.New(nil)
			var primaryGet, primaryAfter, followerAfter func()
			call := func(f *func()) func() {
				return func() {
					if *f != nil {
						(*f)()
					}
				}
			}
			pts := httptest.NewServer(hookSlice(NewServer(primary).Handler(), http.MethodGet, call(&primaryGet), call(&primaryAfter)))
			t.Cleanup(pts.Close)
			fts := httptest.NewServer(hookSlice(NewServer(follower).Handler(), http.MethodPost, nil, call(&followerAfter)))
			t.Cleanup(fts.Close)
			router, err := federation.NewRouter([]federation.Shard{{Wire: "shard0", HTTP: pts.URL}}, federation.RouterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fed := httptest.NewServer(NewFederated(router, FederatedOptions{}).Handler())
			t.Cleanup(fed.Close)

			c := NewClient(fed.URL)
			if err := c.UploadPolicy(bwPolicy); err != nil {
				t.Fatal(err)
			}
			if err := follower.AddPolicy(bwPolicy); err != nil {
				t.Fatal(err)
			}
			for h := 1; h <= 6; h++ {
				if _, err := c.StoreEnvelope(sample(h)); err != nil {
					t.Fatal(err)
				}
				if h <= tc.held {
					if _, err := follower.StoreEnvelope(sample(h)); err != nil {
						t.Fatal(err)
					}
				}
			}
			_, etag, _ := get(t, fts.URL, query, "")

			primaryGet, primaryAfter, followerAfter = tc.hooks(primary, follower, fed.URL)
			replicate := "/federation/replicate?catchup=1&shard=shard0&follower=" + url.QueryEscape("follower0/"+fts.URL)
			answer := postAdmin(t, fed.URL, replicate)
			primaryGet, primaryAfter, followerAfter = nil, nil, nil
			if m := keptRE.FindStringSubmatch(answer); m == nil || m[1] != tc.kept {
				t.Fatalf("catch-up answered %q, want %s kept", answer, tc.kept)
			}
			if tc.again != "" {
				answer := postAdmin(t, fed.URL, replicate)
				if m := keptRE.FindStringSubmatch(answer); m == nil || m[1] != tc.again {
					t.Fatalf("second catch-up answered %q, want %s kept", answer, tc.again)
				}
			}
			if tc.release != nil {
				tc.release(primary)
			}

			_, _, want := get(t, pts.URL, query, "")
			status, _, got := get(t, fts.URL, query, "")
			if status != http.StatusOK || !bytes.Equal(got, want) || knownPoints(string(got)) != 7 {
				t.Fatalf("follower's /archive (%d):\n%s\nprimary's:\n%s", status, got, want)
			}
			if tc.etagMove {
				if status, _, _ := get(t, fts.URL, query, etag); status != http.StatusOK {
					t.Fatalf("the ETag %s served before the install revalidated after it: %d", etag, status)
				}
			}
		})
	}
}

// TestSliceDiskMatchesMemory: a disk depot given the slices a memory depot
// is given answers /archive with the same bytes, and one dropped without
// Close once POST /slice has answered reopens with the installed archives.
func TestSliceDiskMatchesMemory(t *testing.T) {
	tf, hs := archiveFederation(t)
	mem := httptest.NewServer(NewServer(depot.New(nil)).Handler())
	t.Cleanup(mem.Close)
	dir := t.TempDir()
	disk, err := depot.OpenDisk(depot.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	dts := httptest.NewServer(NewServer(disk).Handler())
	t.Cleanup(dts.Close)
	for _, s := range tf.router.Shards() {
		_, _, slice := get(t, s.BaseURL(), "/slice", "")
		for _, dst := range []string{mem.URL, dts.URL} {
			resp, err := http.Post(dst+"/slice", "application/octet-stream", bytes.NewReader(slice))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /slice: %s: %s", resp.Status, body)
			}
		}
	}
	sameHistory(t, "disk against memory", mem.URL, dts.URL, hs)

	reopened, err := depot.OpenDisk(depot.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reopened.Close)
	rts := httptest.NewServer(NewServer(reopened).Handler())
	t.Cleanup(rts.Close)
	sameHistory(t, "after a reopen", mem.URL, rts.URL, hs)
}

// TestSliceRoutes: /slice is a depot's alone — a router answers 404 — and
// a policy name holding '|' is refused with 400 on either tier.
func TestSliceRoutes(t *testing.T) {
	tf := newTestFederation(t, 2)
	if status, _, _ := get(t, tf.fed.URL, "/slice", ""); status != http.StatusNotFound {
		t.Fatalf("router GET /slice: %d, want 404", status)
	}
	bad := bwPolicy
	bad.Name = "x|bw"
	body, err := depot.MarshalPolicy(bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{tf.fed.URL, tf.router.Shards()[0].BaseURL()} {
		resp, err := http.Post(base+"/policy", "text/xml", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s/policy of %q: %d, want 400", base, bad.Name, resp.StatusCode)
		}
	}
}

// TestPolicyGeometryBounded: a policy whose history needs more rows than
// an archive image may hold, or whose row overflows, is refused with 400 on
// either tier before anything is allocated, and a report under its prefix
// is then stored as under no policy.
func TestPolicyGeometryBounded(t *testing.T) {
	tf := newTestFederation(t, 2)
	tooFine, overflow := bwPolicy, bwPolicy
	tooFine.Archive = rrd.ArchivalPolicy{Step: time.Nanosecond, History: time.Hour}
	overflow.Archive = rrd.ArchivalPolicy{Step: time.Hour, Granularity: 1 << 40, History: time.Hour}
	for _, p := range []depot.Policy{tooFine, overflow} {
		body, err := depot.MarshalPolicy(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []string{tf.fed.URL, tf.router.Shards()[0].BaseURL()} {
			resp, err := http.Post(base+"/policy", "text/xml", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s/policy of %+v: %d %s, want 400", base, p.Archive, resp.StatusCode, msg)
			}
		}
	}
	for name, d := range tf.depots {
		if ps := d.Policies(); len(ps) != 0 {
			t.Fatalf("%s holds %d policies after the refusals", name, len(ps))
		}
	}
	tf.store(t, sampleEnvelope(t, "tool=pathload,site=s00,vo=tg", t0.Add(time.Hour), 1))
}

// TestLeaveUnknownShard: leaving a shard the ring does not hold is 404,
// with or without migrate.
func TestLeaveUnknownShard(t *testing.T) {
	tf := newTestFederation(t, 2)
	for _, q := range []string{"", "&migrate=1"} {
		resp, err := http.Post(tf.fed.URL+"/federation/leave?shard=nope"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("leave of an unknown shard%s: %d %s, want 404", q, resp.StatusCode, body)
		}
	}
}

// frame is one slice section: a 4-byte tag, the length, the data.
func frame(tag string, data []byte) []byte {
	return append(binary.BigEndian.AppendUint64([]byte(tag), uint64(len(data))), data...)
}

// fuzzGeometryCap bounds the rows × steps of any archive an input may make
// the depot build or update: a policy may ask for any geometry and an
// image may claim any, and their cost is the input's, not a fault.
const fuzzGeometryCap = 1 << 16

// cheap reports whether every archive s makes or installs stays under
// fuzzGeometryCap.
func cheap(s *depot.Slice) bool {
	var rras []rrd.RRA
	for _, p := range s.Policies {
		_, _, layout, _ := rrd.PolicyLayout(p.Name, p.Archive)
		rras = append(rras, layout...)
	}
	for _, a := range s.Archives {
		for _, r := range a.DB.State().RRAs {
			rras = append(rras, r.Def)
		}
	}
	for _, r := range rras {
		if float64(r.Rows)*float64(r.Steps) > fuzzGeometryCap {
			return false
		}
	}
	return true
}

// FuzzApplySlice: POST /slice takes untrusted bytes. They never panic a
// depot. A slice refused at parse changes nothing: the policies, /cache
// and the archived series stay as they were. An accepted slice, read back
// through GET /slice and applied to a second fresh depot, gives it the
// same /cache, /policy and /archive answers.
func FuzzApplySlice(f *testing.F) {
	// A small manual policy, so the seed — and each input the fuzzer
	// minimizes — stays a few kilobytes.
	summary := depot.Policy{Name: "summary", ManualOnly: true, Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 6 * time.Hour}}
	populate := func(tb testing.TB) *depot.Depot {
		d := depot.New(nil)
		for _, p := range []depot.Policy{bwPolicy, summary} {
			if err := d.AddPolicy(p); err != nil {
				tb.Fatal(err)
			}
		}
		for h := 1; h <= 3; h++ {
			for _, id := range []string{"tool=pathload,site=s00,vo=tg", "tool=pathload,site=s01,vo=tg"} {
				if _, err := d.StoreEnvelope(sampleEnvelope(tb, id, t0.Add(time.Duration(h)*time.Hour), float64(h))); err != nil {
					tb.Fatal(err)
				}
			}
			if err := d.ArchiveUpdate(branch.MustParse("category=Total,resource=r1"), summary.Name, t0.Add(time.Duration(h)*time.Hour), 90); err != nil {
				tb.Fatal(err)
			}
		}
		return d
	}
	var real bytes.Buffer
	if err := populate(f).WriteSlice(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add(real.Bytes()[:real.Len()/2])
	small, err := rrd.NewFromPolicy(t0, "v", rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := small.WriteTo(&img); err != nil {
		f.Fatal(err)
	}
	const rowsOff = 16 + 5*8 + 9 + 7*8 + 8 + 3*8 // the first archive's Rows, for a one-letter data source
	hostile := img.Bytes()[:rowsOff+8+4*8+6*8]
	binary.BigEndian.PutUint64(hostile[rowsOff:], 1<<24)
	f.Add(frame("ARCH", append([]byte("site=a|v\x00"), hostile...)))
	f.Add(append(bytes.Clone(real.Bytes()), frame("REPT", []byte("site\x00<r></r>"))...))

	held := populate(f)
	heldH := NewServer(held).Handler()
	serve := func(h http.Handler, method, target string, body []byte) (int, []byte) {
		r := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code, rec.Body.Bytes()
	}
	// state is everything a slice may change, as the querying interface
	// answers it.
	state := func(h http.Handler) [][]byte {
		var out [][]byte
		for _, target := range []string{"/policy", "/cache?branch=", "/slice"} {
			code, body := serve(h, http.MethodGet, target, nil)
			out = append(out, append(strconv.AppendInt(nil, int64(code), 10), body...))
		}
		return out
	}
	heldState := state(heldH)
	freshState := state(NewServer(depot.New(nil)).Handler())
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := depot.ReadSlice(data); err == nil && !cheap(s) {
			t.Skip("geometry past the fuzzing cap")
		}
		fresh := depot.New(nil)
		h := NewServer(fresh).Handler()
		if code, _ := serve(h, http.MethodPost, "/slice", data); code != http.StatusOK {
			if !reflect.DeepEqual(state(h), freshState) {
				t.Fatalf("a refused slice (%d) changed a fresh depot", code)
			}
			if code, _ := serve(heldH, http.MethodPost, "/slice", data); code == http.StatusOK {
				t.Fatal("a slice a fresh depot refused was accepted by another")
			}
			if !reflect.DeepEqual(state(heldH), heldState) {
				t.Fatalf("a refused slice (%d) changed a depot's state", code)
			}
			return
		}
		_, back := serve(h, http.MethodGet, "/slice", nil)
		second := NewServer(depot.New(nil)).Handler()
		if code, body := serve(second, http.MethodPost, "/slice", back); code != http.StatusOK {
			t.Fatalf("GET /slice of an accepted slice refused: %d %s", code, body)
		}
		if got, want := state(second), state(h); !reflect.DeepEqual(got, want) {
			t.Fatal("a slice read back gives a fresh depot another state")
		}
		for _, key := range fresh.ArchivedSeries() {
			i := strings.LastIndexByte(key, '|')
			target := "/archive?" + url.Values{
				"branch": {key[:i]}, "policy": {key[i+1:]}, "cf": {"AVERAGE"},
				"start": {t0.Add(-24 * time.Hour).Format(time.RFC3339)}, "end": {t0.Add(24 * time.Hour).Format(time.RFC3339)},
			}.Encode()
			gc, gb := serve(second, http.MethodGet, target, nil)
			wc, wb := serve(h, http.MethodGet, target, nil)
			if gc != wc || !bytes.Equal(gb, wb) {
				t.Fatalf("%s: %d %q after the read back, %d %q before", target, gc, gb, wc, wb)
			}
		}
	})
}
