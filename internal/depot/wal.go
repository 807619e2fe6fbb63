package depot

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"inca/internal/branch"
)

// The depot write-ahead log's records. The log itself is an
// internal/journal (framed, CRC-checked segments, torn tail truncated on
// open) under data/wal; every mutation that must survive a crash — a
// stored report, an uploaded policy, a manual archive update — is appended
// as one record before it is applied, and recovery replays them through
// the normal store path, which is idempotent (the cache replaces
// same-branch documents; archives drop non-newer samples). A record's
// first byte is its kind.
const (
	walReport = 1 // u16 branch len | branch | report bytes
	walPolicy = 2 // MarshalPolicy's XML
	walManual = 3 // u16 branch len | branch | u16 name len | name | i64 nanos | f64 value
)

// newRecord starts a record of kind whose body opens with id's
// u16-prefixed branch, with room for more bytes.
func newRecord(kind byte, id branch.ID, more int) []byte {
	b := id.String()
	buf := make([]byte, 0, 3+len(b)+more)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
	return append(buf, b...)
}

func encodeReportRecord(id branch.ID, report []byte) []byte {
	return append(newRecord(walReport, id, len(report)), report...)
}

func encodeManualRecord(id branch.ID, policy string, at time.Time, value float64) []byte {
	buf := newRecord(walManual, id, 2+len(policy)+16)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(policy)))
	buf = append(buf, policy...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(at.UnixNano()))
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(value))
}

func encodePolicyRecord(p Policy) ([]byte, error) {
	body, err := MarshalPolicy(p)
	return append([]byte{walPolicy}, body...), err
}

// applyWALRecord replays one record. Per-record apply failures are
// tolerated: a record that fails to apply now also failed (and was not
// acknowledged) when it was first appended, and policy re-uploads collide
// with the checkpoint's copy by design. rec is the journal's buffer, valid
// for the call only; the store path keeps no reference to it.
func (d *Depot) applyWALRecord(rec []byte) error {
	p := rec[1:]
	switch rec[0] {
	case walReport:
		id, n, err := decodeBranch(p)
		if err != nil {
			return err
		}
		d.storeApply(id, p[n:])
	case walPolicy:
		pol, err := ParsePolicy(p)
		if err != nil {
			return err
		}
		d.addPolicyApply(pol)
	case walManual:
		id, n, err := decodeBranch(p)
		if err != nil {
			return err
		}
		p = p[n:]
		if len(p) < 2 || len(p) != 2+int(binary.BigEndian.Uint16(p))+16 {
			return fmt.Errorf("depot: short manual record")
		}
		name := string(p[2 : len(p)-16])
		at := time.Unix(0, int64(binary.BigEndian.Uint64(p[len(p)-16:]))).UTC()
		value := math.Float64frombits(binary.BigEndian.Uint64(p[len(p)-8:]))
		d.archiveUpdateApply(id, name, at, value)
	default:
		// Unknown kinds are skipped for forward compatibility (the CRC
		// already vouched for the bytes).
	}
	return nil
}

// decodeBranch reads a record's u16-prefixed branch and returns the bytes
// it took.
func decodeBranch(p []byte) (branch.ID, int, error) {
	if len(p) < 2 || len(p) < 2+int(binary.BigEndian.Uint16(p)) {
		return branch.ID{}, 0, fmt.Errorf("depot: short wal record")
	}
	n := 2 + int(binary.BigEndian.Uint16(p))
	id, err := branch.Parse(string(p[2:n]))
	if err != nil {
		return branch.ID{}, 0, fmt.Errorf("depot: wal record branch: %w", err)
	}
	return id, n, nil
}
