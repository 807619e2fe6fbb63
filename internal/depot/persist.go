package depot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"time"

	"inca/internal/branch"
	"inca/internal/rrd"
)

// Depot snapshots: the cache document, the uploaded archival policies, and
// every round-robin archive serialize to one image, so a depot restart
// resumes with full history — the durable-depot side of the paper's
// "improved data archival methods" future work.
//
// Image layout: magic, then length-framed sections
//
//	CACH  cache document (canonical XML)
//	POLS  policies (XML)
//	ARCH  one section per archive: key string + rrd image

const snapshotMagic = "INCADEPOT1"

type xmlPolicies struct {
	XMLName  xml.Name         `xml:"policies"`
	Policies []xmlPolicyEntry `xml:"policy"`
}

type xmlPolicyEntry struct {
	Name        string `xml:"name,attr"`
	Prefix      string `xml:"prefix,attr"`
	Path        string `xml:"path,attr"`
	Step        string `xml:"step,attr"`
	Granularity int    `xml:"granularity,attr"`
	History     string `xml:"history,attr"`
	Heartbeat   string `xml:"heartbeat,attr,omitempty"`
	ManualOnly  bool   `xml:"manualOnly,attr"`
}

// writeSection frames one section: a 4-byte tag, the length, the data.
func writeSection(w *bufio.Writer, tag string, data []byte) error {
	if _, err := w.WriteString(tag); err != nil {
		return err
	}
	if _, err := w.Write(binary.BigEndian.AppendUint64(nil, uint64(len(data)))); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

func readSection(r *bufio.Reader) (string, []byte, error) {
	tag := make([]byte, 4)
	if _, err := io.ReadFull(r, tag); err != nil {
		return "", nil, err
	}
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", nil, err
	}
	n := binary.BigEndian.Uint64(lenBuf[:])
	if n > 1<<32 {
		return "", nil, fmt.Errorf("depot: implausible section size %d", n)
	}
	// The length is untrusted input: the buffer grows as bytes arrive, so a
	// corrupt header fails on the short read instead of allocating
	// gigabytes up front.
	var data bytes.Buffer
	if _, err := io.CopyN(&data, r, int64(n)); err != nil {
		return "", nil, fmt.Errorf("depot: section %s truncated: %w", tag, err)
	}
	return string(tag), data.Bytes(), nil
}

// writeImageHead starts a snapshot or checkpoint image: the magic, the
// cache document and the policies.
func (d *Depot) writeImageHead(bw *bufio.Writer) error {
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeSection(bw, "CACH", d.cache.Dump()); err != nil {
		return err
	}
	var pols xmlPolicies
	for _, p := range d.policies.Load().all {
		pols.Policies = append(pols.Policies, marshalPolicyEntry(p))
	}
	polsXML, err := xml.Marshal(pols)
	if err != nil {
		return err
	}
	return writeSection(bw, "POLS", polsXML)
}

// WriteSnapshot serializes the depot state. The image reflects every store
// acknowledged before the call.
func (d *Depot) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := d.writeImageHead(bw); err != nil {
		return err
	}
	// Archives go out in key order, one pinned at a time, and both backends
	// serialize the same image for the same update history — a disk depot's
	// snapshot is byte-identical to its memory twin's.
	for _, key := range d.archives.keys() {
		db, release, ok := d.archives.lookup(key)
		if !ok {
			continue
		}
		var buf bytes.Buffer
		buf.WriteString(key)
		buf.WriteByte(0)
		_, err := db.WriteTo(&buf)
		release()
		if err != nil {
			return err
		}
		if err := writeSection(bw, "ARCH", buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a depot (default options) from an image written
// by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Depot, error) {
	return ReadSnapshotOptions(r, Options{})
}

// ReadSnapshotOptions is ReadSnapshot with explicit options for the
// reconstructed depot, whose cache receives one Update per stored report.
func ReadSnapshotOptions(r io.Reader, opts Options) (*Depot, error) {
	d := NewWithOptions(nil, opts)
	if _, err := d.restoreImage(r); err != nil {
		return nil, err
	}
	return d, nil
}

// restoreImage loads a snapshot or checkpoint image into a depot that has
// stored nothing yet and returns the first live WAL segment a checkpoint
// names (0 without one). The two share the section format, so a disk depot
// restores from a plain snapshot too, leaving its archives to their files.
func (d *Depot) restoreImage(r io.Reader) (firstSeq uint64, err error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("depot: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return 0, fmt.Errorf("depot: bad snapshot magic %q", magic)
	}
	for {
		tag, data, err := readSection(br)
		if err == io.EOF {
			return firstSeq, nil
		}
		if err != nil {
			return 0, fmt.Errorf("depot: snapshot section: %w", err)
		}
		switch tag {
		case "CACH":
			if err := RestoreDump(d.cache, data, branch.ID{}); err != nil {
				return 0, err
			}
		case "POLS":
			var pols xmlPolicies
			if err := xml.Unmarshal(data, &pols); err != nil {
				return 0, fmt.Errorf("depot: snapshot policies: %w", err)
			}
			for _, xp := range pols.Policies {
				p, err := snapshotPolicy(xp)
				if err != nil {
					return 0, err
				}
				if err := d.AddPolicy(p); err != nil {
					return 0, err
				}
			}
		case "ARCH":
			mem, ok := d.archives.(*memoryStore)
			if !ok {
				continue
			}
			sep := bytes.IndexByte(data, 0)
			if sep < 0 {
				return 0, fmt.Errorf("depot: snapshot archive without key")
			}
			key := string(data[:sep])
			db, err := rrd.ReadDB(bytes.NewReader(data[sep+1:]))
			if err != nil {
				return 0, fmt.Errorf("depot: snapshot archive %s: %w", key, err)
			}
			mem.insert(key, db)
		case "WSEQ":
			if len(data) != 8 {
				return 0, fmt.Errorf("depot: checkpoint WSEQ of %d bytes", len(data))
			}
			firstSeq = binary.BigEndian.Uint64(data)
		default:
			// Unknown sections are skipped for forward compatibility.
		}
	}
}

func snapshotPolicy(xp xmlPolicyEntry) (Policy, error) {
	prefix, err := branch.Parse(xp.Prefix)
	if err != nil {
		return Policy{}, fmt.Errorf("depot: snapshot policy %s: %w", xp.Name, err)
	}
	step, err := time.ParseDuration(xp.Step)
	if err != nil {
		return Policy{}, fmt.Errorf("depot: snapshot policy %s step: %w", xp.Name, err)
	}
	history, err := time.ParseDuration(xp.History)
	if err != nil {
		return Policy{}, fmt.Errorf("depot: snapshot policy %s history: %w", xp.Name, err)
	}
	var hb time.Duration
	if xp.Heartbeat != "" {
		if hb, err = time.ParseDuration(xp.Heartbeat); err != nil {
			return Policy{}, fmt.Errorf("depot: snapshot policy %s heartbeat: %w", xp.Name, err)
		}
	}
	return Policy{
		Name: xp.Name, Prefix: prefix, Path: xp.Path, ManualOnly: xp.ManualOnly,
		Archive: rrd.ArchivalPolicy{
			Step: step, Granularity: xp.Granularity, History: history, Heartbeat: hb,
		},
	}, nil
}
