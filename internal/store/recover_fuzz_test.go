package store

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// splitKey inverts appendKey for a key recovery accepted.
func splitKey(k string) (decider string, horizon int, code []byte) {
	dl := int(binary.LittleEndian.Uint16([]byte(k[4:6])))
	return k[6 : 6+dl], int(binary.LittleEndian.Uint32([]byte(k[0:4]))), []byte(k[10+dl:])
}

// openSnapshot opens the log at path and returns a copy of its recovered
// key set and its stats, leaving the store open for the caller.
func openSnapshot(t *testing.T, path string) (*Store, map[string]bool, Stats) {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.mu.Lock()
	known := maps.Clone(s.known)
	s.mu.Unlock()
	return s, known, s.Stats()
}

// FuzzStoreRecover hands Open arbitrary bytes as a verdict log. Open must
// not panic; every record it recovers must be a checksum-valid frame of the
// input; a second Open must truncate nothing and recover the same set; and
// Compact followed by a reopen must preserve every Get answer. The seed
// corpus in testdata/fuzz/FuzzStoreRecover holds a torn header, a torn
// payload, a flipped bit, an implausible length, a future schema, a frame
// whose internal lengths disagree with it, a decider holding
// length-prefix-like bytes, an empty code and a valid multi-record log.
func FuzzStoreRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "v.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, first, st := openSnapshot(t, path)
		s.Close()
		if st.Records != len(first) || st.Recovered < len(first) {
			t.Fatalf("stats %+v disagree with %d recovered keys", st, len(first))
		}
		for k, v := range first {
			if !bytes.Contains(log, appendFrame(nil, k, v)) {
				t.Fatalf("recovered key %q (verdict %v) is not a frame of the input", k, v)
			}
		}

		s, second, st2 := openSnapshot(t, path)
		if st2.TruncatedBytes != 0 {
			s.Close()
			t.Fatalf("second Open truncated %d bytes", st2.TruncatedBytes)
		}
		if !maps.Equal(first, second) || st2.Recovered != st.Recovered || st2.SkippedSchema != st.SkippedSchema {
			s.Close()
			t.Fatalf("second Open recovered %d keys (%+v), first %d (%+v)", len(second), st2, len(first), st)
		}
		err := s.Compact()
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}

		s, third, st3 := openSnapshot(t, path)
		defer s.Close()
		if st3.TruncatedBytes != 0 || st3.SkippedSchema != 0 || len(third) != len(first) {
			t.Fatalf("reopen after Compact: %d keys (%+v), want %d recovered cleanly", len(third), st3, len(first))
		}
		for k, v := range first {
			decider, horizon, code := splitKey(k)
			if got, ok := s.Get(decider, horizon, code); !ok || got != v {
				t.Fatalf("key %q after Compact: Get = (%v, %v), want (%v, true)", k, got, ok, v)
			}
		}
	})
}
