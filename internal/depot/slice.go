package depot

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"inca/internal/branch"
	"inca/internal/rrd"
	"inca/internal/xmlscan"
)

// A slice is the state a membership change moves between depots: a join,
// a graceful leave and a follower's catch-up all send one (DESIGN.md §5c).
// It is framed as a snapshot image is (persist.go), without the magic:
//
//	POLS  the policies, as a snapshot writes them
//	ARCH  one per archive, as a snapshot writes them: key | NUL | rrd image
//	REPT  one per stored report: branch | NUL | payload
//
// A router splits a slice by branch (SplitSlice) reading only what comes
// before each NUL, never XML or an rrd image; a depot reads one whole
// (ReadSlice) before it applies any of it (ApplySlice).

// WriteSlice writes the depot's slice: its policies, its archives and
// every stored report.
func (d *Depot) WriteSlice(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := d.writePolicies(bw); err != nil {
		return err
	}
	if err := d.writeArchives(bw); err != nil {
		return err
	}
	stored, err := d.cache.Reports(branch.ID{})
	if err != nil {
		return err
	}
	var sec []byte
	for _, st := range stored {
		sec = append(append(st.ID.Append(sec[:0]), 0), st.XML...)
		if err := writeSection(bw, "REPT", sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PolicySlice is the slice that holds policies alone: what a shard that
// joins without its ranges, or a follower before its tee starts, is sent.
func PolicySlice(ps []Policy) ([]byte, error) {
	pols, err := MarshalPolicies(ps)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = writeSection(&buf, "POLS", pols)
	return buf.Bytes(), err
}

// Slice is a slice read and checked: what ApplySlice applies.
type Slice struct {
	Policies []Policy
	Archives []SliceArchive
	Reports  []Stored // ID and XML: the payload as stored
}

// SliceArchive is one archive of a slice.
type SliceArchive struct {
	Key string
	DB  *rrd.DB
	sec []byte // the ARCH section's body, the install record's
}

// ReadSlice reads a slice and checks all of it: every policy is one
// AddPolicy takes, every archive key names a branch and a policy and its
// image reads, every report's branch is in canonical form and its payload
// is one the cache stores as it is. Sections of other tags are skipped.
func ReadSlice(data []byte) (*Slice, error) {
	s := &Slice{}
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		tag, sec, err := readSection(br)
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, fmt.Errorf("depot: slice: %w", err)
		}
		switch tag {
		case "POLS":
			ps, err := ParsePolicies(sec)
			if err != nil {
				return nil, err
			}
			for _, p := range ps {
				if err := errors.Join(checkName(p.Name), checkPolicy(p)); err != nil {
					return nil, err
				}
			}
			s.Policies = append(s.Policies, ps...)
		case "ARCH":
			key, db, err := parseArchive(sec)
			if err != nil {
				return nil, fmt.Errorf("depot: slice: %w", err)
			}
			if _, err := keyBranch(key); err != nil {
				return nil, err
			}
			s.Archives = append(s.Archives, SliceArchive{Key: key, DB: db, sec: sec})
		case "REPT":
			id, payload, err := cutBranch(sec)
			if err != nil {
				return nil, err
			}
			if _, ok := xmlscan.Canonical(payload); !ok {
				return nil, fmt.Errorf("depot: slice report at %s is not in stored form", id)
			}
			s.Reports = append(s.Reports, Stored{ID: id, XML: payload})
		}
	}
}

// SliceResult counts what ApplySlice did; its XML form is POST /slice's
// answer.
type SliceResult struct {
	XMLName   xml.Name `xml:"slice"`
	Policies  int      `xml:"policies,attr"`  // policies added: names the depot did not hold
	Installed int      `xml:"installed,attr"` // archives installed
	Kept      int      `xml:"kept,attr"`      // archives kept: the depot's own was newer or of another geometry
	Reports   int      `xml:"reports,attr"`   // reports stored
}

// Add sums o into r.
func (r *SliceResult) Add(o SliceResult) {
	r.Policies += o.Policies
	r.Installed += o.Installed
	r.Kept += o.Kept
	r.Reports += o.Reports
}

// String is what an administrative answer says moved.
func (r SliceResult) String() string {
	return fmt.Sprintf("%d reports, %d archives installed, %d kept", r.Reports, r.Installed, r.Kept)
}

// ApplySlice applies a slice ReadSlice returned, which it takes over: the
// policies whose names the depot does not hold, through AddPolicy; then
// the archives, each installed under rrd.DB.Install's rule and, on the
// disk engine, logged first; then the reports, through Store, so the WAL,
// the feed and the cache see each one as any other store. Having been
// read whole, the slice fails here only for I/O.
func (d *Depot) ApplySlice(s *Slice) (SliceResult, error) {
	var res SliceResult
	for _, p := range s.Policies {
		if _, held := d.policies.Load().byName[p.Name]; held {
			continue
		}
		if err := d.AddPolicy(p); errors.Is(err, errDuplicatePolicy) {
			continue // uploaded meanwhile
		} else if err != nil {
			return res, err
		}
		res.Policies++
	}
	for _, a := range s.Archives {
		ok, err := d.installArchive(a)
		if err != nil {
			return res, err
		}
		if ok {
			res.Installed++
		} else {
			res.Kept++
		}
	}
	for _, st := range s.Reports {
		if _, err := d.Store(st.ID, st.XML); err != nil {
			return res, err
		}
		res.Reports++
	}
	return res, nil
}

// installArchive installs a slice's archive, logged first on the disk
// engine.
func (d *Depot) installArchive(a SliceArchive) (bool, error) {
	if d.wal != nil {
		d.storeBarrier.RLock()
		defer d.storeBarrier.RUnlock()
		if _, err := d.wal.Append(append([]byte{walInstall}, a.sec...)); err != nil {
			return false, err
		}
	}
	return d.installApply(a.Key, a.DB)
}

// installApply is installArchive past the write-ahead log (the WAL replay
// entry point). An install moves the depot-wide archive generation, as an
// applied sample does.
func (d *Depot) installApply(key string, db *rrd.DB) (bool, error) {
	ok, err := d.archives.install(key, db)
	if ok {
		d.archiveGen.Add(1)
	}
	return ok, err
}

// SplitSlice cuts a slice by destination: the part to names for a branch
// holds the slice's POLS sections and every ARCH and REPT section of the
// branches to names it for. A branch to names "" for stays out, and so
// makes no part. Sections are copied as they came.
func SplitSlice(data []byte, to func(branch.ID) string) (map[string][]byte, error) {
	var pols []byte
	parts := make(map[string][]byte)
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		tag, sec, err := readSection(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("depot: slice: %w", err)
		}
		var id branch.ID
		switch tag {
		case "POLS":
			pols = appendSection(pols, tag, sec)
			continue
		case "ARCH":
			key, _, _ := bytes.Cut(sec, []byte{0})
			id, err = keyBranch(string(key))
		case "REPT":
			id, _, err = cutBranch(sec)
		default:
			continue
		}
		if err != nil {
			return nil, err
		}
		if dst := to(id); dst != "" {
			parts[dst] = appendSection(parts[dst], tag, sec)
		}
	}
	for dst, p := range parts {
		parts[dst] = append(pols[:len(pols):len(pols)], p...)
	}
	return parts, nil
}

// appendSection appends one framed section to dst.
func appendSection(dst []byte, tag string, sec []byte) []byte {
	buf := bytes.NewBuffer(dst)
	writeSection(buf, tag, sec) // a bytes.Buffer does not fail
	return buf.Bytes()
}

// keyBranch is the branch of an archive key, branch|policy: what precedes
// its last '|', since a policy name holds none.
func keyBranch(key string) (branch.ID, error) {
	i := strings.LastIndexByte(key, '|')
	if i < 0 || i == len(key)-1 {
		return branch.ID{}, fmt.Errorf("depot: archive key %q names no policy", key)
	}
	return canonicalBranch(key[:i])
}

// cutBranch splits a REPT section into its branch and its payload.
func cutBranch(sec []byte) (branch.ID, []byte, error) {
	raw, payload, ok := bytes.Cut(sec, []byte{0})
	if !ok {
		return branch.ID{}, nil, fmt.Errorf("depot: slice report without branch")
	}
	id, err := canonicalBranch(string(raw))
	return id, payload, err
}

// canonicalBranch parses s, which must be the branch's canonical form: a
// key or a report is found again by that form.
func canonicalBranch(s string) (branch.ID, error) {
	id, err := branch.Parse(s)
	if err == nil && id.String() != s {
		err = fmt.Errorf("branch %q is not in canonical form", s)
	}
	if err != nil {
		return branch.ID{}, fmt.Errorf("depot: slice: %w", err)
	}
	return id, nil
}
