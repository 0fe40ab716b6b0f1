package perfdb

import (
	"errors"
	"os"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/recordlog"
)

// hostileRecords decodes fuzz bytes into well-framed verdict-log records
// with hostile payloads. Each record takes four bytes: a type selector
// (mostly recVerdict, sometimes the clp1 type or any other byte), a
// length selector (mostly 33, sometimes anything up to 63), a key byte
// (one of four keys, so duplicates and conflicts are common) and a
// verdict byte taken as is, so values above 1 occur.
func hostileRecords(data []byte) (typs []byte, payloads [][]byte) {
	for ; len(data) >= 4; data = data[4:] {
		typ := recVerdict
		switch sel := data[0]; {
		case sel >= 0xF0:
			typ = sel & 0x1F
		case sel >= 0xD0:
			typ = recVerdictCLP1
		}
		n := 33
		if data[1] >= 0xC0 {
			n = int(data[1] & 0x3F)
		}
		p := make([]byte, n)
		k := key(data[2] % 4)
		copy(p, k[:])
		if n > 32 {
			p[32] = data[3]
		}
		typs = append(typs, typ)
		payloads = append(payloads, p)
	}
	return typs, payloads
}

// FuzzVerdictStoreOpen opens the verdict store on hostile files: either
// well-framed record logs whose payloads have wrong lengths, verdict bytes
// above 1, unknown types and conflicting duplicate keys, or raw bytes.
// Open must never panic, must serve exactly the 33-byte recVerdict
// records whose verdict byte is 0 or 1, the first such record of a key
// winning, must count the clp1 records it skips, and must refuse a
// foreign file without touching it.
func FuzzVerdictStoreOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 2, 7})                      // conflict, then verdict 7
	f.Add([]byte{0, 0, 0xC5, 1, 1, 0xF3, 0, 2, 1, 0xD0, 0, 3, 1, 0, 0, 3, 0}) // short, unknown, clp1, valid
	f.Add([]byte{1, 0xCF, 0x4A, 0x11, 33, 0, 0, 0})                           // raw: a torn frame
	f.Add([]byte{1, '2', '2', ' ', '1', '\n'})                                // raw: the legacy text store
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := faultfs.NewMem()
		if data[0]&1 == 0 {
			l, _, err := recordlog.Open(m, "v.db", func(byte, []byte) {})
			if err != nil {
				t.Fatal(err)
			}
			typs, payloads := hostileRecords(data[1:])
			for i := range typs {
				if err := l.Append(typs[i], payloads[i], false); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			fh, err := m.OpenFile("v.db", os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.Write(data[1:]); err != nil {
				t.Fatal(err)
			}
			fh.Close()
		}
		image := m.Bytes("v.db")

		// The reference reading: replay the intact frames of a copy and
		// apply the serving rule to them.
		ref := faultfs.NewMem()
		fh, err := ref.OpenFile("v.db", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fh.Write(image)
		fh.Close()
		want := map[[32]byte]bool{}
		clp1 := 0
		_, _, refErr := recordlog.Open(ref, "v.db", func(typ byte, p []byte) {
			switch {
			case typ == recVerdictCLP1:
				clp1++
			case typ == recVerdict && len(p) == 33 && p[32] <= 1:
				if _, dup := want[[32]byte(p)]; !dup {
					want[[32]byte(p)] = p[32] == 1
				}
			}
		})

		s, err := OpenVerdictStoreFS(m, "v.db")
		if errors.Is(refErr, recordlog.ErrForeign) {
			if !errors.Is(err, recordlog.ErrForeign) {
				t.Fatalf("foreign file opened: %v", err)
			}
			if string(m.Bytes("v.db")) != string(image) {
				t.Fatal("refused file was modified")
			}
			return
		}
		if err != nil || refErr != nil {
			t.Fatalf("open: %v (reference replay: %v)", err, refErr)
		}
		defer s.Close()
		if s.Len() != len(want) || s.SkippedCLP1() != clp1 {
			t.Fatalf("store serves %d verdicts and skipped %d clp1 records, want %d and %d", s.Len(), s.SkippedCLP1(), len(want), clp1)
		}
		for k, v := range want {
			if got, ok := s.Get(k); !ok || got != v {
				t.Fatalf("key %x: served %v (%v), want %v", k[:4], got, ok, v)
			}
			if err := s.Put(k, !v); !errors.Is(err, ErrVerdictConflict) {
				t.Fatalf("key %x: conflicting put returned %v", k[:4], err)
			}
		}
		for b := byte(0); b < 4; b++ {
			if _, ok := want[key(b)]; !ok {
				if _, served := s.Get(key(b)); served {
					t.Fatalf("key %d served with no valid record", b)
				}
			}
		}
	})
}
