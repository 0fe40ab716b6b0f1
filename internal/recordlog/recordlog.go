// Package recordlog is the one on-disk record format under
// counterpointd's durable stores (internal/jobstore's job journal and
// internal/perfdb's verdict store): a flat, append-only sequence of
// CRC-framed records,
//
//	[magic 0xCF 0x4A][type 1B][len u32le][crc32c u32le][payload]
//
// A crash can only damage the tail, so the loader's repair rule is simple
// and total: replay frames until the first bad one (torn header, short
// payload, CRC mismatch, bad magic, insane length), keep everything
// before it, truncate the rest. CRCs make "bad" detectable even when the
// damage lands inside a payload; a record is trusted only when its
// checksum verifies. A file whose first byte is not the magic was never a
// record log (a legacy text store, a mistyped path) and is refused
// untouched rather than truncated to nothing.
//
// The payload encoding and every policy above the frame — record types,
// retries, degradation, what to compact — belong to the store on top.
package recordlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/faultfs"
)

const (
	magic0 = 0xCF
	magic1 = 0x4A
	header = 2 + 1 + 4 + 4
)

// ErrForeign reports a non-empty file that does not start with the frame
// magic. Open leaves such a file byte-for-byte untouched.
var ErrForeign = errors.New("recordlog: not a record log")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FrameLen is the on-disk size of a record carrying payload.
func FrameLen(payload []byte) int64 { return int64(header + len(payload)) }

func appendFrame(b []byte, typ byte, payload []byte) []byte {
	var h [header]byte
	h[0], h[1], h[2] = magic0, magic1, typ
	binary.LittleEndian.PutUint32(h[3:7], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[7:11], crc32.Checksum(payload, crcTable))
	return append(append(b, h[:]...), payload...)
}

// errTorn marks the first frame that fails to verify.
var errTorn = errors.New("recordlog: torn or corrupt frame")

// readFrame reads one frame starting rest bytes before the end of the
// file. io.EOF at the first header byte is a clean end; a short or
// unverifiable frame is errTorn; anything else is the reader's I/O
// error, which must not be mistaken for damage.
func readFrame(r *bufio.Reader, rest int64) (byte, []byte, error) {
	var h [header]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errTorn
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(h[3:7])
	// A declared length past the end of the file is a torn or garbage
	// length field; checking it first keeps a corrupt header from
	// allocating gigabytes.
	if h[0] != magic0 || h[1] != magic1 || int64(n) > rest-header {
		return 0, nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errTorn
		}
		return 0, nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(h[7:11]) {
		return 0, nil, errTorn
	}
	return h[2], payload, nil
}

// Log is an open record log. It is not safe for concurrent use; the
// store on top serialises access.
type Log struct {
	fsys faultfs.FS
	path string
	f    faultfs.File // nil after Drop or a failed rollback; reopened lazily
	off  int64        // known-good, frame-aligned end of the file
	buf  []byte       // frame scratch, reused across appends
}

// Open opens (creating if needed) the log at path on fsys and replays
// every intact frame through apply, in file order. apply owns the payload
// it is given. The file is truncated at the first bad frame; repaired
// reports that something was cut. A non-empty file that does not start
// with the magic returns ErrForeign and is left as it is.
func Open(fsys faultfs.FS, path string, apply func(typ byte, payload []byte)) (l *Log, repaired bool, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("recordlog: open %s: %w", path, err)
	}
	l = &Log{fsys: fsys, path: path, f: f}
	if repaired, err = l.load(apply); err != nil {
		f.Close()
		return nil, false, err
	}
	return l, repaired, nil
}

func (l *Log) load(apply func(byte, []byte)) (repaired bool, err error) {
	size, err := l.f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = l.f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return false, fmt.Errorf("recordlog: seek %s: %w", l.path, err)
	}
	r := bufio.NewReader(l.f)
	if first, err := r.Peek(1); err == nil && first[0] != magic0 {
		return false, fmt.Errorf("%w: %s", ErrForeign, l.path)
	}
	for {
		typ, payload, err := readFrame(r, size-l.off)
		if err == io.EOF {
			break
		}
		if err == errTorn {
			// Everything before this frame is intact (CRCs verified);
			// the rest is the crash's damage.
			repaired = true
			if err := l.f.Truncate(l.off); err != nil {
				return false, fmt.Errorf("recordlog: repair %s: %w", l.path, err)
			}
			break
		}
		if err != nil {
			return false, fmt.Errorf("recordlog: read %s: %w", l.path, err)
		}
		apply(typ, payload)
		l.off += FrameLen(payload)
	}
	if _, err := l.f.Seek(l.off, io.SeekStart); err != nil {
		return false, fmt.Errorf("recordlog: seek %s: %w", l.path, err)
	}
	return repaired, nil
}

// Size is the known-good length of the log in bytes.
func (l *Log) Size() int64 { return l.off }

// Append writes one record, through an fsync barrier when sync is set.
// On a failed write or fsync the file is rolled back to the previous
// frame boundary, so a failed Append leaves no trace and a retry lands
// a clean frame.
func (l *Log) Append(typ byte, payload []byte, sync bool) error {
	if l.f == nil {
		if err := l.reopen(); err != nil {
			return err
		}
	}
	l.buf = appendFrame(l.buf[:0], typ, payload)
	_, err := l.f.Write(l.buf)
	if err == nil && sync {
		// Written but not durable is indistinguishable from not written
		// for the caller: roll back so the log keeps matching its acks.
		err = l.f.Sync()
	}
	if err != nil {
		l.rollback()
		return err
	}
	l.off += int64(len(l.buf))
	return nil
}

// rollback restores the file to the known-good boundary; if even that
// fails the handle is dropped and the next Append reopens and truncates.
func (l *Log) rollback() {
	if l.f.Truncate(l.off) != nil {
		l.Drop()
		return
	}
	if _, err := l.f.Seek(l.off, io.SeekStart); err != nil {
		l.Drop()
	}
}

// reopen opens the file positioned at the known-good offset, truncating
// anything a dying handle left beyond it.
func (l *Log) reopen() error {
	f, err := l.fsys.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(l.off); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(l.off, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.f = f
	return nil
}

// Drop closes the file handle without syncing. The next Append reopens
// the file from scratch, which also heals transient fd-level damage.
func (l *Log) Drop() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// Sync fsyncs every appended record. It is a no-op while the handle is
// dropped; the next synced Append covers the file again.
func (l *Log) Sync() error {
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close fsyncs and closes the file. The Log must not be used afterwards.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// Rewrite replaces the log with the records the records callback puts,
// for compaction: they go to a temp file that is fsynced and then renamed
// over the log, so a failure at any point leaves the old log in place.
func (l *Log) Rewrite(records func(put func(typ byte, payload []byte))) error {
	tmp := l.path + ".compact"
	tf, err := l.fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(tf, 1<<16)
	var off int64
	records(func(typ byte, payload []byte) {
		l.buf = appendFrame(l.buf[:0], typ, payload)
		off += int64(len(l.buf))
		w.Write(l.buf) // a failed write sticks in w and surfaces at Flush
	})
	err = w.Flush()
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		l.Drop()
		err = l.fsys.Rename(tmp, l.path)
	}
	if err != nil {
		l.fsys.Remove(tmp)
		return err
	}
	l.off = off
	return l.reopen()
}
