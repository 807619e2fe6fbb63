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

func writeSection(w *bufio.Writer, tag string, data []byte) error {
	if len(tag) != 4 {
		return fmt.Errorf("depot: section tag %q must be 4 bytes", tag)
	}
	if _, err := w.WriteString(tag); err != nil {
		return err
	}
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(data)))
	if _, err := w.Write(lenBuf[:]); err != nil {
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
	// The length is untrusted input: grow the buffer chunk by chunk so a
	// corrupt header fails on the short read instead of allocating
	// gigabytes up front.
	const chunk = 1 << 20
	data := make([]byte, 0, min64(n, chunk))
	for uint64(len(data)) < n {
		step := n - uint64(len(data))
		if step > chunk {
			step = chunk
		}
		start := len(data)
		data = append(data, make([]byte, step)...)
		if _, err := io.ReadFull(r, data[start:]); err != nil {
			return "", nil, fmt.Errorf("depot: section %s truncated: %w", tag, err)
		}
	}
	return string(tag), data, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// WriteSnapshot serializes the depot state. The image reflects every store
// acknowledged before the call.
func (d *Depot) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeSection(bw, "CACH", d.cache.Dump()); err != nil {
		return err
	}
	polsXML, err := marshalPolicies(d.policies.Load().all)
	if err != nil {
		return err
	}
	if err := writeSection(bw, "POLS", polsXML); err != nil {
		return err
	}
	// The store iterates in key order pinning one archive at a time, and
	// both backends serialize the same image for the same update history —
	// a disk depot's snapshot is byte-identical to its memory twin's.
	err = d.archives.each(func(key string, db archiveDB) error {
		var buf bytes.Buffer
		buf.WriteString(key)
		buf.WriteByte(0)
		if _, err := db.WriteTo(&buf); err != nil {
			return err
		}
		return writeSection(bw, "ARCH", buf.Bytes())
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

func heartbeatString(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return d.String()
}

// ReadSnapshot reconstructs a depot (default cache, default options) from
// an image written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Depot, error) {
	return ReadSnapshotOptions(r, nil, Options{})
}

// ReadSnapshotOptions is ReadSnapshot into the given cache (nil for the
// default, as in New), which receives one Update per stored report, and
// with explicit options for the reconstructed depot.
func ReadSnapshotOptions(r io.Reader, cache Cache, opts Options) (*Depot, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("depot: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("depot: bad snapshot magic %q", magic)
	}
	d := NewWithOptions(cache, opts)
	for {
		tag, data, err := readSection(br)
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, fmt.Errorf("depot: snapshot section: %w", err)
		}
		switch tag {
		case "CACH":
			if err := restoreDump(d.cache, data); err != nil {
				return nil, err
			}
		case "POLS":
			var pols xmlPolicies
			if err := xml.Unmarshal(data, &pols); err != nil {
				return nil, fmt.Errorf("depot: snapshot policies: %w", err)
			}
			for _, xp := range pols.Policies {
				p, err := snapshotPolicy(xp)
				if err != nil {
					return nil, err
				}
				if err := d.AddPolicy(p); err != nil {
					return nil, err
				}
			}
		case "ARCH":
			sep := bytes.IndexByte(data, 0)
			if sep < 0 {
				return nil, fmt.Errorf("depot: snapshot archive without key")
			}
			key := string(data[:sep])
			db, err := rrd.ReadDB(bytes.NewReader(data[sep+1:]))
			if err != nil {
				return nil, fmt.Errorf("depot: snapshot archive %s: %w", key, err)
			}
			d.archives.(*memoryStore).insert(key, db)
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
