package depot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

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
//	POLS  policies (a <policies> list of policy records, policy.go)
//	ARCH  one section per archive: key string + rrd image
//
// A slice (slice.go) is framed the same way, without the magic.

const snapshotMagic = "INCADEPOT1"

// writeSection frames one section: a 4-byte tag, the length, the data.
func writeSection(w io.Writer, tag string, data []byte) error {
	if _, err := io.WriteString(w, tag); err != nil {
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
	return d.writePolicies(bw)
}

// writePolicies writes the POLS section of an image or a slice.
func (d *Depot) writePolicies(w io.Writer) error {
	polsXML, err := MarshalPolicies(d.policies.Load().all)
	if err != nil {
		return err
	}
	return writeSection(w, "POLS", polsXML)
}

// writeArchives writes one ARCH section per archive, the loop a snapshot
// and a slice share. Archives go out in key order, one pinned at a time,
// and both backends serialize the same image for the same update history —
// a disk depot's snapshot is byte-identical to its memory twin's.
func (d *Depot) writeArchives(w io.Writer) error {
	var buf bytes.Buffer
	for _, key := range d.archives.keys() {
		db, release, ok := d.archives.lookup(key)
		if !ok {
			continue
		}
		buf.Reset()
		buf.WriteString(key)
		buf.WriteByte(0)
		_, err := db.WriteTo(&buf)
		release()
		if err != nil {
			return err
		}
		if err := writeSection(w, "ARCH", buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// parseArchive reads an ARCH section (or an install record): the key, a
// NUL, an rrd image.
func parseArchive(data []byte) (string, *rrd.DB, error) {
	sep := bytes.IndexByte(data, 0)
	if sep < 0 {
		return "", nil, fmt.Errorf("depot: archive without key")
	}
	key := string(data[:sep])
	db, err := rrd.ReadDB(bytes.NewReader(data[sep+1:]))
	if err != nil {
		return "", nil, fmt.Errorf("depot: archive %s: %w", key, err)
	}
	return key, db, nil
}

// WriteSnapshot serializes the depot state. The image reflects every store
// acknowledged before the call.
func (d *Depot) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := d.writeImageHead(bw); err != nil {
		return err
	}
	if err := d.writeArchives(bw); err != nil {
		return err
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
			pols, err := ParsePolicies(data)
			if err != nil {
				return 0, err
			}
			for _, p := range pols {
				if err := d.addPolicy(p); err != nil {
					return 0, err
				}
			}
		case "ARCH":
			mem, ok := d.archives.(*memoryStore)
			if !ok {
				continue
			}
			key, db, err := parseArchive(data)
			if err != nil {
				return 0, fmt.Errorf("depot: snapshot: %w", err)
			}
			if _, err := mem.install(key, db); err != nil {
				return 0, err
			}
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
