package recordlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"testing"

	"repro/internal/faultfs"
)

type record struct {
	typ     byte
	payload string
}

// openMem opens the log "log" on m and collects the replayed records.
func openMem(t testing.TB, m *faultfs.Mem) (*Log, bool, []record, error) {
	t.Helper()
	var recs []record
	l, repaired, err := Open(m, "log", func(typ byte, p []byte) {
		recs = append(recs, record{typ, string(p)})
	})
	return l, repaired, recs, err
}

// encode is the byte image of recs as a log.
func encode(recs []record) []byte {
	var b []byte
	for _, r := range recs {
		b = appendFrame(b, r.typ, []byte(r.payload))
	}
	return b
}

// writeMem stores data as the durable content of "log" on a fresh Mem.
func writeMem(t testing.TB, data []byte) *faultfs.Mem {
	t.Helper()
	m := faultfs.NewMem()
	f, err := m.OpenFile("log", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return m
}

func TestAppendReopenReplays(t *testing.T) {
	m := faultfs.NewMem()
	l, repaired, recs, err := openMem(t, m)
	if err != nil || repaired || len(recs) != 0 {
		t.Fatalf("fresh open: repaired %v, %d records, err %v", repaired, len(recs), err)
	}
	want := []record{{1, "alpha"}, {2, ""}, {7, "gamma"}}
	for i, r := range want {
		if err := l.Append(r.typ, []byte(r.payload), i == len(want)-1); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Size(); got != int64(len(encode(want))) {
		t.Fatalf("Size = %d, want %d", got, len(encode(want)))
	}
	m.Crash(0)
	_, repaired, recs, err = openMem(t, m)
	if err != nil || repaired {
		t.Fatalf("reopen: repaired %v, err %v", repaired, err)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %v, want %v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("replayed %v, want %v", recs, want)
		}
	}
}

// TestFailedAppendRollsBack: a failed fsync and a short write each leave
// the file at the previous frame boundary, and the next Append lands a
// clean frame.
func TestFailedAppendRollsBack(t *testing.T) {
	m := faultfs.NewMem()
	l, _, _, err := openMem(t, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("kept"), true); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	m.FailSyncs(1, nil)
	if err := l.Append(1, []byte("unsynced"), true); err == nil {
		t.Fatal("Append acked a record whose fsync failed")
	}
	if int64(len(m.Bytes("log"))) != size {
		t.Fatalf("failed fsync left %d bytes in the file, want %d", len(m.Bytes("log")), size)
	}
	m.ShortWrites(1)
	if err := l.Append(1, []byte("short"), false); err == nil {
		t.Fatal("Append acked a short write")
	}
	if l.Size() != size || int64(len(m.Bytes("log"))) != size {
		t.Fatalf("failed appends left size %d / file %d bytes, want %d", l.Size(), len(m.Bytes("log")), size)
	}
	if err := l.Append(2, []byte("next"), true); err != nil {
		t.Fatal(err)
	}
	m.Crash(0)
	_, repaired, recs, err := openMem(t, m)
	if err != nil || repaired || len(recs) != 2 || recs[1] != (record{2, "next"}) {
		t.Fatalf("reopen: repaired %v, records %v, err %v", repaired, recs, err)
	}
}

// TestForeignFileUntouched: a non-empty file that does not start with the
// magic — a text file, a mistyped path — is refused byte for byte intact.
func TestForeignFileUntouched(t *testing.T) {
	text := []byte("2222222222222222222222222222222222222222222222222222222222222222 1\n")
	m := writeMem(t, text)
	if _, _, _, err := openMem(t, m); !errors.Is(err, ErrForeign) {
		t.Fatalf("open foreign file: err = %v, want ErrForeign", err)
	}
	if !bytes.Equal(m.Bytes("log"), text) {
		t.Fatalf("foreign file changed to %q", m.Bytes("log"))
	}
}

// TestHugeDeclaredLengthIsTorn: a garbage length field declaring far
// more bytes than the file holds is a torn frame, found without
// allocating the declared size.
func TestHugeDeclaredLengthIsTorn(t *testing.T) {
	data := encode([]record{{1, "kept"}})
	data = append(data, appendFrame(nil, 1, []byte("x"))...)
	binary.LittleEndian.PutUint32(data[len(data)-1-8:], 0xFFFFFFF0) // the second frame's length
	m := writeMem(t, data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, repaired, recs, err := openMem(t, m)
	runtime.ReadMemStats(&after)
	if err != nil || !repaired || len(recs) != 1 {
		t.Fatalf("open: repaired %v, %d records, err %v; want the first record and a repair", repaired, len(recs), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("loading a garbage length allocated %d bytes", grew)
	}
}

// TestRewriteReplacesLog: Rewrite swaps in exactly the records it is
// given, leaves no temp file, and the log keeps appending after it.
func TestRewriteReplacesLog(t *testing.T) {
	m := faultfs.NewMem()
	l, _, _, err := openMem(t, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"dead", "live", "dead"} {
		if err := l.Append(1, []byte(p), false); err != nil {
			t.Fatal(err)
		}
	}
	live := []record{{1, "live"}}
	if err := l.Rewrite(func(put func(byte, []byte)) { put(1, []byte("live")) }); err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(len(encode(live))) || m.Bytes("log.compact") != nil {
		t.Fatalf("after rewrite Size = %d, temp file %q", l.Size(), m.Bytes("log.compact"))
	}
	if err := l.Append(3, []byte("after"), true); err != nil {
		t.Fatal(err)
	}
	m.Crash(0)
	_, _, recs, err := openMem(t, m)
	if err != nil || len(recs) != 2 || recs[0] != live[0] || recs[1] != (record{3, "after"}) {
		t.Fatalf("reopen after rewrite: %v, err %v", recs, err)
	}
}

// FuzzRecordLog feeds arbitrary bytes to Open. It must never panic, and
// either refuse the file with ErrForeign and leave it unchanged, or cut
// it to exactly the frames it replayed. An Append then reopen replays
// those frames plus the new one.
func FuzzRecordLog(f *testing.F) {
	good := encode([]record{{1, "spec"}, {2, "event"}, {0x10, string(make([]byte, 33))}})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte{}, good...), 0xCF))
	flipped := append([]byte{}, good...)
	flipped[20] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("2222 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := writeMem(t, data)
		l, repaired, recs, err := openMem(t, m)
		if errors.Is(err, ErrForeign) {
			if !bytes.Equal(m.Bytes("log"), data) {
				t.Fatal("refused file was modified")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		img := encode(recs)
		if !bytes.Equal(m.Bytes("log"), img) || l.Size() != int64(len(img)) {
			t.Fatalf("file is %d bytes (Size %d), want exactly the %d bytes of %d replayed frames",
				len(m.Bytes("log")), l.Size(), len(img), len(recs))
		}
		if !bytes.HasPrefix(data, img) || repaired != (len(img) != len(data)) {
			t.Fatalf("replayed frames are not the input's prefix, or repaired = %v wrongly", repaired)
		}
		if err := l.Append(9, []byte("appended"), true); err != nil {
			t.Fatal(err)
		}
		m.Crash(0)
		_, repaired, again, err := openMem(t, m)
		if err != nil || repaired || len(again) != len(recs)+1 || again[len(recs)] != (record{9, "appended"}) {
			t.Fatalf("reopen after append: repaired %v, %d records (want %d), err %v", repaired, len(again), len(recs)+1, err)
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
	})
}
