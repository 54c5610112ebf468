// Package store implements the crash-safe persistent verdict store behind
// the decided service: an append-only record log keyed by the engine's
// (decider, horizon, canonical code) triple. Every record is length-prefixed
// and CRC32C-checksummed so a torn write — the tail a SIGKILL or power cut
// leaves behind — is detected on open and truncated away rather than served.
//
// The store is deliberately engine-free: it deals in Records of raw bytes and
// a boolean verdict. The decided server wires it to the engine's ViewCache
// through the cache's two hooks: persist (write-behind, Put) and load
// (read-through, Get), so a restarted server serves every recovered verdict
// on its first miss without replaying the log into the cache.
//
// Wire format, little-endian throughout:
//
//	record  := [4B payloadLen][4B CRC32C(payload)][payload]
//	payload := [1B schema][1B verdict][4B horizon][2B deciderLen][decider]
//	           [4B codeLen][code]
//
// Recovery scans the log from the start, verifying each frame. The scan
// stops — and the file is truncated — at the first record whose frame is
// torn (short) or whose checksum fails: everything after a torn record is
// untrustworthy because the append offset itself is in doubt. A record that
// frames and checksums correctly but carries an unknown schema version is
// skipped and counted instead: the bytes are intact, only the encoding is
// from the future, so later records remain trustworthy.
//
// In memory, a record is keyed by its payload after the schema and verdict
// bytes (see appendKey). Recovery reads the log once, copies its verified
// prefix into one string, and keys every recovered record by a substring of
// it, so keying a million records allocates one block instead of a million.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// SchemaVersion is the record-payload encoding version written by this
// package. Open skips (never serves, never truncates at) well-framed records
// with a different version.
const SchemaVersion = 1

// frameHeaderBytes is the fixed per-record framing overhead: 4-byte payload
// length plus 4-byte CRC32C of the payload.
const frameHeaderBytes = 8

// maxPayloadBytes bounds a single record's payload. Canonical codes are a
// few dozen bytes in practice; the cap exists so a corrupt length prefix
// cannot drive recovery (or an attacker-controlled log) into a giant
// allocation — an implausible length is treated as corruption.
const maxPayloadBytes = 1 << 20

// minPayloadBytes is the payload of a record with an empty decider name and
// an empty code: schema, verdict, horizon and the two length fields.
const minPayloadBytes = 12

// castagnoli is the CRC32C table; Castagnoli rather than IEEE because it is
// the polynomial with hardware support on amd64/arm64 — checksumming must be
// cheap enough to sit on the persistence path of every verdict.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one persisted verdict: the engine's (decider, horizon, code)
// cache key plus the boolean verdict it resolved to.
type Record struct {
	// Decider names the decider that produced the verdict.
	Decider string
	// Horizon is the view radius the decider ran at.
	Horizon int
	// Code is the canonical view code the verdict was computed for.
	Code []byte
	// Verdict is true for Yes, false for No.
	Verdict bool
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Records is the number of live records (recovered + appended, after
	// in-memory dedup).
	Records int
	// Appended counts records durably handed to the flusher since Open.
	Appended int64
	// QueueDrops counts Put calls dropped because the write-behind queue was
	// full. Dropped verdicts are recomputed on the next cold start — a
	// throughput hit, never a correctness hit.
	QueueDrops int64
	// Oversized counts Put calls refused because recovery would reject the
	// record's frame: a decider name over 65,535 bytes (its length field is
	// two bytes) or a payload over 1 MiB. Appending such a frame would make
	// the next Open truncate it and every record after it; refused verdicts
	// are recomputed after a restart instead.
	Oversized int64
	// Recovered is the number of valid records read back at Open.
	Recovered int
	// SkippedSchema counts well-framed records dropped at Open for carrying
	// an unknown schema version.
	SkippedSchema int
	// TruncatedBytes is the number of trailing bytes cut at Open because the
	// first torn or checksum-corrupt record began there.
	TruncatedBytes int64
	// Flushes counts explicit and batch fsync cycles completed.
	Flushes int64
}

// Options configures Open.
type Options struct {
	// QueueDepth bounds the write-behind queue. 0 means a default of 1024.
	// When the queue is full, Put drops the record and counts a QueueDrop
	// instead of blocking the eval hot path.
	QueueDepth int
	// SyncEvery makes the flusher fsync after every batch it drains when
	// true. When false, data still reaches the kernel on every batch; fsync
	// happens on Flush, Compact, and Close. Chaos tests run with true.
	SyncEvery bool
}

// Store is an append-only, crash-safe verdict log with a write-behind
// flusher. All methods are safe for concurrent use.
type Store struct {
	path string
	opts Options

	mu sync.Mutex // guards known, keyBuf, stats, testGate
	// known maps each live record's key (see appendKey) to its verdict: the
	// dedup set Put checks and the read-through source Get serves. The keys
	// of recovered records are substrings of one string holding the log's
	// verified prefix.
	known map[string]bool
	// keyBuf is the buffer Put and Get build lookup keys in, reused so a
	// lookup allocates nothing.
	keyBuf []byte
	stats  Stats

	// wmu serialises every use of file (append, sync, compaction swap,
	// close). It is separate from mu so Put — which only touches the dedup
	// map — never waits behind a disk write. Compact acquires wmu before mu;
	// no other path holds both at once.
	wmu  sync.Mutex
	file *os.File

	// testGate, when set (under mu) by tests, stalls the flusher before each
	// batch write so overflow behaviour can be exercised deterministically.
	testGate chan struct{}

	queue    chan pending
	flushReq chan chan error
	done     chan struct{}
	closed   chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// pending is a record accepted by Put and not yet written: its key and
// verdict, which together are its whole payload but the schema byte.
type pending struct {
	key     string
	verdict bool
}

// appendKey appends the in-memory key of (decider, horizon, code) to buf.
// The key is the record's payload after its schema and verdict bytes,
//
//	[4B horizon][2B deciderLen][decider][4B codeLen][code]
//
// so a recovered record is keyed by a substring of the log, and a frame is
// written straight from a key. The length fields keep ("ab", code) and
// ("a", "b"+code) apart. Callers check recordable first, so the lengths fit
// their fields.
func appendKey(buf []byte, decider string, horizon int, code []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(horizon))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(decider)))
	buf = append(buf, decider...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(code)))
	return append(buf, code...)
}

// keyLengthsAgree reports whether a key's decider and code length fields
// add up to its length. The key must hold its 10 bytes of fixed fields,
// which scan's plausibility bound guarantees.
func keyLengthsAgree(k []byte) bool {
	dl := int(binary.LittleEndian.Uint16(k[4:]))
	if len(k) < 10+dl {
		return false
	}
	cl := int(binary.LittleEndian.Uint32(k[6+dl:]))
	return len(k) == 10+dl+cl
}

// recordable reports whether recovery would accept the frame of a record
// with this decider name and code length: the name's length must fit its
// two-byte field and the payload must stay within maxPayloadBytes.
func recordable(decider string, codeLen int) bool {
	return len(decider) <= math.MaxUint16 &&
		codeLen <= maxPayloadBytes-minPayloadBytes-len(decider)
}

// appendFrame appends the framed wire encoding of the record with the given
// key and verdict to buf and returns the extended slice.
func appendFrame(buf []byte, key string, verdict bool) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(2+len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // checksum, set below
	v := byte(0)
	if verdict {
		v = 1
	}
	buf = append(buf, SchemaVersion, v)
	buf = append(buf, key...)
	sum := crc32.Checksum(buf[start+frameHeaderBytes:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start+4:], sum)
	return buf
}

// Open opens (creating if absent) the verdict log at path, runs the recovery
// scan, truncates any torn tail, and starts the write-behind flusher.
func Open(path string, opts Options) (*Store, error) {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s := &Store{
		path:     path,
		opts:     opts,
		file:     f,
		queue:    make(chan pending, opts.QueueDepth),
		flushReq: make(chan chan error, 1),
		done:     make(chan struct{}),
		closed:   make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// recover reads the log, keys every verified record into known, and
// truncates the file at the first torn or checksum-corrupt record.
func (s *Store) recover() error {
	fi, err := s.file.Stat()
	if err != nil {
		return fmt.Errorf("store: recovery stat: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(s.file, data); err != nil {
		return fmt.Errorf("store: recovery read: %w", err)
	}
	end, live, skipped := scan(data)
	// Every frame before end is verified, so this second walk only follows
	// the length prefixes, keying each record by a substring of one copy of
	// the prefix.
	prefix := string(data[:end])
	s.known = make(map[string]bool, live)
	for off := 0; off < end; {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		p := prefix[off+frameHeaderBytes : off+frameHeaderBytes+n]
		if p[0] == SchemaVersion {
			s.known[p[2:]] = p[1] != 0
		}
		off += frameHeaderBytes + n
	}
	s.stats.Recovered = live
	s.stats.SkippedSchema = skipped
	s.stats.Records = len(s.known)
	if end < len(data) {
		s.stats.TruncatedBytes = int64(len(data) - end)
		if err := s.file.Truncate(int64(end)); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	if _, err := s.file.Seek(int64(end), io.SeekStart); err != nil {
		return fmt.Errorf("store: seek append offset: %w", err)
	}
	return nil
}

// scan walks the frames of a log image. It returns the length of the
// verified prefix, the number of records in it that carry SchemaVersion,
// and the number skipped for carrying another version.
func scan(data []byte) (end, live, skipped int) {
	for end < len(data) {
		rest := data[end:]
		if len(rest) < frameHeaderBytes {
			break // torn header
		}
		payloadLen := int(binary.LittleEndian.Uint32(rest[0:]))
		if payloadLen > maxPayloadBytes || payloadLen < minPayloadBytes {
			break // implausible length prefix: corrupt
		}
		if len(rest) < frameHeaderBytes+payloadLen {
			break // torn payload
		}
		wantSum := binary.LittleEndian.Uint32(rest[4:])
		payload := rest[frameHeaderBytes : frameHeaderBytes+payloadLen]
		if crc32.Checksum(payload, castagnoli) != wantSum {
			break // flipped bits: corrupt
		}
		if payload[0] != SchemaVersion {
			// Intact frame from a future encoder: skip, keep scanning.
			skipped++
		} else if keyLengthsAgree(payload[2:]) {
			live++
		} else {
			break // internal lengths disagree with the frame: corrupt
		}
		end += frameHeaderBytes + payloadLen
	}
	return end, live, skipped
}

// Put enqueues a record for asynchronous persistence. It never blocks: a
// full queue drops the record (counted in QueueDrops), a record already
// known (same key) is deduplicated away, and a record recovery would reject
// is refused (counted in Oversized). The returned bool reports whether the
// record was accepted for persistence.
func (s *Store) Put(r Record) bool {
	s.mu.Lock()
	if !recordable(r.Decider, len(r.Code)) {
		s.stats.Oversized++
		s.mu.Unlock()
		return false
	}
	s.keyBuf = appendKey(s.keyBuf[:0], r.Decider, r.Horizon, r.Code)
	if _, dup := s.known[string(s.keyBuf)]; dup {
		s.mu.Unlock()
		return false
	}
	// Mark known before enqueueing so a concurrent Put of the same key
	// dedups against this one; unmark on drop so it can retry later.
	k := string(s.keyBuf)
	s.known[k] = r.Verdict
	s.stats.Records = len(s.known)
	s.mu.Unlock()

	select {
	case s.queue <- pending{key: k, verdict: r.Verdict}:
		return true
	default:
	}
	s.mu.Lock()
	delete(s.known, k)
	s.stats.Records = len(s.known)
	s.stats.QueueDrops++
	s.mu.Unlock()
	return false
}

// Get reports the verdict stored for (decider, horizon, code) and whether
// one exists. It takes only the map lock, never the writer lock, and
// allocates nothing, so a cache may call it on its miss path.
func (s *Store) Get(decider string, horizon int, code []byte) (verdict, ok bool) {
	if !recordable(decider, len(code)) {
		return false, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyBuf = appendKey(s.keyBuf[:0], decider, horizon, code)
	verdict, ok = s.known[string(s.keyBuf)]
	return verdict, ok
}

// flusher is the write-behind goroutine: it drains the queue in batches,
// writes them with a single syscall, and fsyncs per Options.SyncEvery or on
// explicit Flush requests.
func (s *Store) flusher() {
	defer close(s.closed)
	buf := make([]byte, 0, 4096)
	for {
		select {
		case p := <-s.queue:
			buf = s.writeBatch(buf[:0], p)
		case ack := <-s.flushReq:
			ack <- s.drainAndSync(buf[:0])
		case <-s.done:
			// Final drain: persist everything still queued, then sync.
			s.drainAndSync(buf[:0])
			return
		}
	}
}

// writeBatch encodes first plus everything else currently queued and writes
// the batch in one call.
func (s *Store) writeBatch(buf []byte, first pending) []byte {
	s.mu.Lock()
	gate := s.testGate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	buf = appendFrame(buf, first.key, first.verdict)
	n := 1
	for more := true; more; {
		select {
		case p := <-s.queue:
			buf = appendFrame(buf, p.key, p.verdict)
			n++
		default:
			more = false
		}
	}
	s.wmu.Lock()
	if s.file == nil {
		s.wmu.Unlock()
		return buf
	}
	_, werr := s.file.Write(buf)
	synced := false
	if werr == nil && s.opts.SyncEvery {
		synced = s.file.Sync() == nil
	}
	s.wmu.Unlock()
	if werr != nil {
		// A failed append leaves the log merely shorter — recovery semantics
		// make that safe. Count the records as never appended.
		return buf
	}
	s.mu.Lock()
	s.stats.Appended += int64(n)
	if synced {
		s.stats.Flushes++
	}
	s.mu.Unlock()
	return buf
}

// drainAndSync empties the queue, writes what it found, and fsyncs.
func (s *Store) drainAndSync(buf []byte) error {
	n := 0
	for more := true; more; {
		select {
		case p := <-s.queue:
			buf = appendFrame(buf, p.key, p.verdict)
			n++
		default:
			more = false
		}
	}
	s.wmu.Lock()
	if s.file == nil {
		s.wmu.Unlock()
		return errors.New("store: closed")
	}
	if n > 0 {
		if _, err := s.file.Write(buf); err != nil {
			s.wmu.Unlock()
			return fmt.Errorf("store: flush write: %w", err)
		}
	}
	serr := s.file.Sync()
	s.wmu.Unlock()
	if serr != nil {
		return fmt.Errorf("store: fsync: %w", serr)
	}
	s.mu.Lock()
	s.stats.Appended += int64(n)
	s.stats.Flushes++
	s.mu.Unlock()
	return nil
}

// Flush blocks until every record enqueued before the call is written and
// fsynced.
func (s *Store) Flush() error {
	ack := make(chan error, 1)
	select {
	case s.flushReq <- ack:
		select {
		case err := <-ack:
			return err
		case <-s.closed:
			return errors.New("store: closed during flush")
		}
	case <-s.closed:
		return errors.New("store: closed")
	}
}

// Compact rewrites the log to contain exactly the live (deduplicated)
// records, via a temp file and atomic rename, reclaiming space from dropped
// duplicates and skipped-schema records. The store remains usable after.
func (s *Store) Compact() error {
	if err := s.Flush(); err != nil {
		return err
	}
	// Holding wmu stalls flusher appends for the duration: any record enqueued
	// after the snapshot below waits and lands in the new file. The snapshot
	// itself covers every accepted Put — known is marked before enqueue — so
	// no record can slip into the old file and miss the rewrite.
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.file == nil {
		return errors.New("store: closed")
	}
	s.mu.Lock()
	buf := make([]byte, 0, 4096)
	live := make([]pending, 0, len(s.known))
	for k, v := range s.known {
		live = append(live, pending{key: k, verdict: v})
	}
	s.mu.Unlock()
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact open: %w", err)
	}
	for _, p := range live {
		buf = appendFrame(buf, p.key, p.verdict)
		if len(buf) >= 1<<16 {
			if _, err := tmp.Write(buf); err != nil {
				tmp.Close()
				os.Remove(tmpPath)
				return fmt.Errorf("store: compact write: %w", err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact sync: %w", err)
	}
	// The rename is the commit point: either the old complete log or the new
	// complete log exists, never a partial mixture.
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact rename: %w", err)
	}
	// Durably record the rename itself.
	if dir, derr := os.Open(filepath.Dir(s.path)); derr == nil {
		dir.Sync()
		dir.Close()
	}
	old := s.file
	s.file = tmp
	old.Close()
	if _, err := tmp.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: compact seek: %w", err)
	}
	s.mu.Lock()
	s.stats.SkippedSchema = 0
	s.stats.TruncatedBytes = 0
	s.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close drains the queue, fsyncs, and closes the log. Safe to call more
// than once.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		<-s.closed
		s.wmu.Lock()
		if s.file != nil {
			s.closeErr = s.file.Close()
			s.file = nil
		}
		s.wmu.Unlock()
	})
	return s.closeErr
}
