package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func rec(i int, verdict bool) Record {
	code := make([]byte, 16)
	binary.LittleEndian.PutUint64(code, uint64(i))
	copy(code[8:], "storecov")
	return Record{Decider: "test-decider", Horizon: 2, Code: code, Verdict: verdict}
}

func mustOpen(t *testing.T, path string, opts Options) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRoundTrip: records put, flushed, and reopened come back verbatim.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s := mustOpen(t, path, Options{})
	const n = 100
	for i := 0; i < n; i++ {
		if !s.Put(rec(i, i%3 == 0)) {
			t.Fatalf("Put(%d) rejected", i)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, path, Options{})
	st := s2.Stats()
	if st.Recovered != n || st.Records != n {
		t.Fatalf("recovered %d records (live %d), want %d", st.Recovered, st.Records, n)
	}
	if st.TruncatedBytes != 0 || st.SkippedSchema != 0 {
		t.Fatalf("clean log reported damage: %+v", st)
	}
	for i := 0; i < n; i++ {
		want := rec(i, i%3 == 0)
		v, ok := s2.Get(want.Decider, want.Horizon, want.Code)
		if !ok || v != want.Verdict {
			t.Fatalf("record %d: got (%v, %v), want (%v, true)", i, v, ok, want.Verdict)
		}
	}
	// Get sits on the cache's miss path: a lookup must not allocate.
	probe := rec(7, false)
	if allocs := testing.AllocsPerRun(100, func() { s2.Get(probe.Decider, probe.Horizon, probe.Code) }); allocs != 0 {
		t.Fatalf("Get allocates %.0f times per call, want 0", allocs)
	}
}

// handFrame encodes a record exactly as the package comment's wire format
// states, independently of the store's encoder.
func handFrame(r Record) []byte {
	var p []byte
	p = append(p, SchemaVersion)
	if r.Verdict {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(r.Horizon))
	p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Decider)))
	p = append(p, r.Decider...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(r.Code)))
	p = append(p, r.Code...)
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(p, castagnoli))
	return append(f, p...)
}

// TestWireFormatPinned: the store writes exactly the documented frames, and
// recovers a log written frame by frame from that documentation. The
// in-memory key shares the payload's layout, but the format on disk is the
// contract every existing log relies on.
func TestWireFormatPinned(t *testing.T) {
	recs := []Record{
		{Decider: "degree2", Horizon: 1, Code: []byte("cycle"), Verdict: true},
		{Decider: "3col", Horizon: 300, Code: []byte{0, 1, 2}, Verdict: false},
		{Decider: "", Horizon: 0, Code: nil, Verdict: true},
	}
	var want []byte
	for _, r := range recs {
		want = append(want, handFrame(r)...)
	}

	path := filepath.Join(t.TempDir(), "v.log")
	s := mustOpen(t, path, Options{})
	for _, r := range recs {
		if !s.Put(r) {
			t.Fatalf("Put(%+v) rejected", r)
		}
		if err := s.Flush(); err != nil { // one record per batch keeps the order
			t.Fatalf("Flush: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("store wrote\n%x\nwire format says\n%x", got, want)
	}

	hand := filepath.Join(t.TempDir(), "hand.log")
	if err := os.WriteFile(hand, want, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, hand, Options{})
	if st := s2.Stats(); st.Recovered != len(recs) || st.TruncatedBytes != 0 {
		t.Fatalf("hand-written log: %+v, want %d records recovered cleanly", st, len(recs))
	}
	for _, r := range recs {
		if v, ok := s2.Get(r.Decider, r.Horizon, r.Code); !ok || v != r.Verdict {
			t.Fatalf("hand-written record %+v: got (%v, %v)", r, v, ok)
		}
	}
}

// TestPutDedup: a second Put of the same key is a no-op.
func TestPutDedup(t *testing.T) {
	s := mustOpen(t, filepath.Join(t.TempDir(), "v.log"), Options{})
	if !s.Put(rec(1, true)) {
		t.Fatal("first Put rejected")
	}
	if s.Put(rec(1, true)) {
		t.Fatal("duplicate Put accepted")
	}
	if st := s.Stats(); st.Records != 1 {
		t.Fatalf("live records = %d, want 1", st.Records)
	}
}

// TestQueueDropNeverBlocks: with the flusher wedged behind a held write, a
// burst past the queue depth returns promptly with drops counted — the
// eval hot path must never block on persistence.
func TestQueueDropNeverBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := mustOpen(t, path, Options{QueueDepth: 8})
	// Wedge the flusher behind the test gate, then flood the queue.
	gate := make(chan struct{})
	s.mu.Lock()
	s.testGate = gate
	s.mu.Unlock()
	s.Put(rec(0, true)) // wakes the flusher, which parks on the gate
	time.Sleep(20 * time.Millisecond)
	done := make(chan int, 1)
	go func() {
		dropped := 0
		for i := 1; i <= 64; i++ {
			if !s.Put(rec(i, true)) {
				dropped++
			}
		}
		done <- dropped
	}()
	select {
	case dropped := <-done:
		if dropped == 0 {
			t.Error("flooding a wedged queue dropped nothing")
		}
	case <-time.After(5 * time.Second):
		t.Error("Put blocked on a wedged flusher")
	}
	close(gate)
	if st := s.Stats(); st.QueueDrops == 0 {
		t.Fatalf("drops not counted: %+v", st)
	}
}

// TestDroppedRecordRetriable: a record dropped on queue overflow is unmarked
// from the dedup map, so a later Put (with queue space) persists it.
func TestDroppedRecordRetriable(t *testing.T) {
	s := mustOpen(t, filepath.Join(t.TempDir(), "v.log"), Options{QueueDepth: 4})
	gate := make(chan struct{})
	s.mu.Lock()
	s.testGate = gate
	s.mu.Unlock()
	s.Put(rec(0, true))
	time.Sleep(20 * time.Millisecond)
	var victim bool
	for i := 1; i <= 32; i++ {
		if !s.Put(rec(i, true)) {
			victim = true
		}
	}
	close(gate)
	if !victim {
		t.Skip("queue never overflowed; cannot exercise retry")
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Find a dropped record (absent from known) and retry it.
	retried := false
	for i := 1; i <= 32; i++ {
		r := rec(i, true)
		if _, ok := s.Get(r.Decider, r.Horizon, r.Code); !ok {
			if !s.Put(r) {
				t.Fatalf("retry of dropped record %d rejected", i)
			}
			retried = true
			break
		}
	}
	if !retried {
		t.Fatal("overflow reported but every record is known")
	}
}

// corruptAt opens the log and applies fn to its bytes, writing them back.
func corruptAt(t *testing.T, path string, fn func(data []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatalf("write corrupted log: %v", err)
	}
}

// writeLog writes n records and closes the store, returning the frame
// offsets of each record for byte surgery.
func writeLog(t *testing.T, path string, n int) []int {
	t.Helper()
	s := mustOpen(t, path, Options{})
	offsets := make([]int, n)
	off := 0
	for i := 0; i < n; i++ {
		offsets[i] = off
		r := rec(i, true)
		off += frameHeaderBytes + 12 + len(r.Decider) + len(r.Code)
		if !s.Put(r) {
			t.Fatalf("Put(%d) rejected", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if fi.Size() != int64(off) {
		t.Fatalf("log size %d, want %d — frame math drifted", fi.Size(), off)
	}
	return offsets
}

// TestRecoveryTruncatesTornTail: a log cut mid-record recovers the complete
// prefix and truncates the torn bytes.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	offsets := writeLog(t, path, 10)
	// Tear the last record in half.
	cut := offsets[9] + frameHeaderBytes + 3
	corruptAt(t, path, func(data []byte) []byte { return data[:cut] })

	s := mustOpen(t, path, Options{})
	st := s.Stats()
	if st.Recovered != 9 {
		t.Fatalf("recovered %d, want 9", st.Recovered)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("torn tail not counted")
	}
	fi, _ := os.Stat(path)
	if fi.Size() != int64(offsets[9]) {
		t.Fatalf("file not truncated at last good record: size %d, want %d", fi.Size(), offsets[9])
	}
	// The 9 intact records are all served; the torn one is not.
	for i := 0; i < 9; i++ {
		r := rec(i, true)
		if _, ok := s.Get(r.Decider, r.Horizon, r.Code); !ok {
			t.Fatalf("intact record %d lost", i)
		}
	}
	r9 := rec(9, true)
	if _, ok := s.Get(r9.Decider, r9.Horizon, r9.Code); ok {
		t.Fatal("torn record served")
	}
}

// TestRecoveryStopsAtFlippedBit: a checksum-corrupt record in the middle
// truncates it and everything after — once a frame fails its CRC the append
// offset is untrustworthy.
func TestRecoveryStopsAtFlippedBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	offsets := writeLog(t, path, 10)
	corruptAt(t, path, func(data []byte) []byte {
		data[offsets[4]+frameHeaderBytes+2] ^= 0x40 // flip a payload bit of record 4
		return data
	})

	s := mustOpen(t, path, Options{})
	st := s.Stats()
	if st.Recovered != 4 {
		t.Fatalf("recovered %d, want 4 (prefix before the flipped bit)", st.Recovered)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("corrupt region not counted")
	}
	r7 := rec(7, true)
	if _, ok := s.Get(r7.Decider, r7.Horizon, r7.Code); ok {
		t.Fatal("record after corruption served")
	}
}

// TestRecoveryImplausibleLength: a corrupt length prefix (gigantic) is
// treated as corruption, not an allocation request.
func TestRecoveryImplausibleLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	offsets := writeLog(t, path, 6)
	corruptAt(t, path, func(data []byte) []byte {
		binary.LittleEndian.PutUint32(data[offsets[3]:], 0xfffffff0)
		return data
	})
	s := mustOpen(t, path, Options{})
	if st := s.Stats(); st.Recovered != 3 {
		t.Fatalf("recovered %d, want 3", st.Recovered)
	}
}

// TestRecoverySkipsUnknownSchema: a well-framed record with a future schema
// version is skipped and counted; records after it still load.
func TestRecoverySkipsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	offsets := writeLog(t, path, 8)
	corruptAt(t, path, func(data []byte) []byte {
		// Rewrite record 2's schema byte to a future version and fix the
		// checksum so the frame stays intact.
		start := offsets[2]
		payloadLen := int(binary.LittleEndian.Uint32(data[start:]))
		payload := data[start+frameHeaderBytes : start+frameHeaderBytes+payloadLen]
		payload[0] = SchemaVersion + 9
		binary.LittleEndian.PutUint32(data[start+4:], crc32.Checksum(payload, castagnoli))
		return data
	})
	s := mustOpen(t, path, Options{})
	st := s.Stats()
	if st.Recovered != 7 {
		t.Fatalf("recovered %d, want 7 (one skipped)", st.Recovered)
	}
	if st.SkippedSchema != 1 {
		t.Fatalf("SkippedSchema = %d, want 1", st.SkippedSchema)
	}
	if st.TruncatedBytes != 0 {
		t.Fatal("schema skip must not truncate")
	}
	// Records after the skipped one are intact.
	r7 := rec(7, true)
	if _, ok := s.Get(r7.Decider, r7.Horizon, r7.Code); !ok {
		t.Fatal("record after schema skip lost")
	}
}

// TestCompactDropsDeadBytes: compaction rewrites the log to live records
// only, atomically, and the store keeps working after.
func TestCompactDropsDeadBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := mustOpen(t, path, Options{})
	for i := 0; i < 50; i++ {
		s.Put(rec(i, true))
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Store remains usable.
	if !s.Put(rec(100, false)) {
		t.Fatal("Put after Compact rejected")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, path, Options{})
	st := s2.Stats()
	if st.Recovered != 51 {
		t.Fatalf("recovered %d after compact, want 51", st.Recovered)
	}
	if st.TruncatedBytes != 0 {
		t.Fatalf("compacted log reported damage: %+v", st)
	}
}

// TestCompactRoundTripsKeys: Compact writes every frame straight from its
// in-memory key, so a reopen after Compact must give back every field —
// decider, horizon, code and verdict — including decider names holding
// length-prefix-like bytes, an empty decider, an empty code and a horizon
// using all four of its bytes.
func TestCompactRoundTripsKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := mustOpen(t, path, Options{})
	recs := []Record{
		{Decider: "3col", Horizon: 1, Code: []byte("abc"), Verdict: true},
		{Decider: "3col", Horizon: 2, Code: []byte("abc"), Verdict: false},
		{Decider: "3co", Horizon: 1, Code: []byte("labc"), Verdict: false},
		{Decider: "\x03\x00\x00\x00\xff", Horizon: 7, Code: []byte{0, 0, 0, 0}, Verdict: true},
		{Decider: "", Horizon: 0, Code: []byte("only-code"), Verdict: true},
		{Decider: "empty-code", Horizon: 3, Code: nil, Verdict: false},
		{Decider: "", Horizon: 0, Code: nil, Verdict: true},
		{Decider: "wide", Horizon: 0x7fff_fff0, Code: bytes.Repeat([]byte{0xa5}, 300), Verdict: true},
	}
	for i := 0; i < 20; i++ {
		recs = append(recs, rec(i, i%2 == 0))
	}
	for _, r := range recs {
		if !s.Put(r) {
			t.Fatalf("Put(%+v) rejected", r)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, path, Options{})
	if st := s2.Stats(); st.Recovered != len(recs) || st.TruncatedBytes != 0 || st.SkippedSchema != 0 {
		t.Fatalf("reopen after Compact: %+v, want %d records recovered cleanly", st, len(recs))
	}
	for _, r := range recs {
		if v, ok := s2.Get(r.Decider, r.Horizon, r.Code); !ok || v != r.Verdict {
			t.Fatalf("record %+v: got (%v, %v), want (%v, true)", r, v, ok, r.Verdict)
		}
	}
	// A field off by one byte is a different key.
	if _, ok := s2.Get("3col", 1, []byte("ab")); ok {
		t.Fatal("truncated code served")
	}
	if _, ok := s2.Get("3col", 3, []byte("abc")); ok {
		t.Fatal("wrong horizon served")
	}
}

// TestPutRefusesUnrecoverableRecords: a record whose frame recovery would
// reject — a decider name too long for its two-byte length field, or a
// payload over maxPayloadBytes — is refused and counted, never appended,
// so the valid record put after it survives a reopen.
func TestPutRefusesUnrecoverableRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  Record
	}{
		{"long-decider", Record{Decider: strings.Repeat("d", 1<<16), Horizon: 1, Code: []byte("c")}},
		{"big-code", Record{Decider: "d", Horizon: 1, Code: make([]byte, 2<<20)}},
		{"payload-one-over", Record{Decider: "d", Horizon: 1, Code: make([]byte, maxPayloadBytes-minPayloadBytes)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "v.log")
			s := mustOpen(t, path, Options{})
			if s.Put(tc.bad) {
				t.Fatal("unrecoverable record accepted")
			}
			if _, ok := s.Get(tc.bad.Decider, tc.bad.Horizon, tc.bad.Code); ok {
				t.Fatal("refused record marked known")
			}
			good := rec(1, true)
			if !s.Put(good) {
				t.Fatal("valid record after the refused one rejected")
			}
			if st := s.Stats(); st.Oversized != 1 || st.Records != 1 {
				t.Fatalf("stats %+v, want Oversized 1, Records 1", st)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2 := mustOpen(t, path, Options{})
			if st := s2.Stats(); st.Recovered != 1 || st.TruncatedBytes != 0 {
				t.Fatalf("reopen: %+v, want 1 record recovered, nothing truncated", st)
			}
			if v, ok := s2.Get(good.Decider, good.Horizon, good.Code); !ok || !v {
				t.Fatalf("valid record lost after reopen: (%v, %v)", v, ok)
			}
		})
	}
	// The largest recoverable payload is accepted and recovered.
	path := filepath.Join(t.TempDir(), "v.log")
	s := mustOpen(t, path, Options{})
	edge := Record{Decider: "d", Horizon: 1, Code: make([]byte, maxPayloadBytes-minPayloadBytes-1)}
	if !s.Put(edge) {
		t.Fatal("record at exactly maxPayloadBytes refused")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := mustOpen(t, path, Options{}).Stats(); st.Recovered != 1 || st.TruncatedBytes != 0 {
		t.Fatalf("record at exactly maxPayloadBytes not recovered: %+v", st)
	}
}

// TestConcurrentPutFlush hammers Put from several goroutines while Flush
// and Stats run concurrently — run under -race.
func TestConcurrentPutFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := mustOpen(t, path, Options{QueueDepth: 256})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Put(rec(g*1000+i, i%2 == 0))
				if i%100 == 0 {
					s.Flush()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, path, Options{})
	st := s2.Stats()
	if st.TruncatedBytes != 0 {
		t.Fatalf("concurrent churn tore the log: %+v", st)
	}
	// Every record that survived dedup+drops must read back verbatim.
	if st.Recovered == 0 {
		t.Fatal("nothing recovered")
	}
}

// --- SIGKILL chaos -------------------------------------------------------

// chaosChildEnv guards the re-exec child body: when set, TestMain-less test
// binaries run the child writer instead of the test suite.
const chaosChildEnv = "STORE_CHAOS_CHILD"

// TestChaosKillMidWrite re-execs the test binary as a child that appends
// records 0,1,2,... with per-batch fsync, SIGKILLs it mid-stream, then
// reopens the log and verifies the recovered prefix: records must be a
// contiguous prefix of the written sequence, every one intact. Run a few
// rounds to vary where the kill lands.
func TestChaosKillMidWrite(t *testing.T) {
	if os.Getenv(chaosChildEnv) != "" {
		chaosChild(os.Getenv(chaosChildEnv))
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("re-exec chaos test skipped in -short")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	for round := 0; round < 3; round++ {
		path := filepath.Join(t.TempDir(), "chaos.log")
		cmd := exec.Command(bin, "-test.run", "TestChaosKillMidWrite")
		cmd.Env = append(os.Environ(), chaosChildEnv+"="+path)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			t.Fatalf("round %d: start child: %v", round, err)
		}
		// Let the child write for a while, then kill it without warning.
		time.Sleep(time.Duration(30+round*40) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		s, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("round %d: reopen after kill: %v (child output: %s)", round, err, out.String())
		}
		st := s.Stats()
		// Every recovered record must be rec(i, i%2==0) for a contiguous
		// prefix 0..Recovered-1: the child writes in order with SyncEvery,
		// so recovery may lose a tail but never an interior record and
		// never invent or mangle one.
		for i := 0; i < st.Recovered; i++ {
			want := rec(i, i%2 == 0)
			v, ok := s.Get(want.Decider, want.Horizon, want.Code)
			if !ok {
				t.Fatalf("round %d: hole at record %d of %d recovered", round, i, st.Recovered)
			}
			if v != want.Verdict {
				t.Fatalf("round %d: record %d verdict corrupted", round, i)
			}
		}
		if st.Records != st.Recovered {
			t.Fatalf("round %d: %d live vs %d recovered — phantom records", round, st.Records, st.Recovered)
		}
		s.Close()
		t.Logf("round %d: recovered %d records, truncated %d bytes", round, st.Recovered, st.TruncatedBytes)
	}
}

// chaosChild writes records 0,1,2,... as fast as the flusher syncs them,
// until killed. SyncEvery keeps the durable prefix close behind the writes.
func chaosChild(path string) {
	s, err := Open(path, Options{QueueDepth: 4, SyncEvery: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		// Put with retry: the tiny queue forces constant flusher handoff so
		// the kill lands mid-write with high probability.
		for !s.Put(rec(i, i%2 == 0)) {
			time.Sleep(50 * time.Microsecond)
		}
	}
}
