// Package store is a persistent, content-addressed result store: one
// metrics.Report per simulation key (runner.KeyFor's SHA-256 hex), kept
// on disk so repeated sweep points cost a file read instead of a
// simulation — across process restarts and across clients of the icrd
// service.
//
// Guarantees:
//
//   - Versioned format: an entry is a header — magic, container format
//     version, payload length, SHA-256 of the payload — followed by the
//     report's JSON. The report version lives only in that payload's own
//     "schema" field, and metrics decides whether it is current. An
//     entry in another container format, or whose payload metrics
//     rejects as a schema mismatch, is stale; so is every entry after a
//     runner.KeyFor change, which rotates every key. Stale entries
//     degrade to misses, never to wrong hits.
//   - Atomic writes: entries are written to a temp file in the store
//     directory, fsynced, and renamed into place, so a crash mid-write
//     can never leave a half-visible entry.
//   - Corruption tolerance: a bad magic, truncated header, length
//     mismatch, or checksum failure is treated as a miss and the file is
//     quarantined (renamed aside) so it is never re-read and never served.
//   - Bounded size: total payload bytes respect a cap; least-recently-used
//     entries are evicted first. Recency survives restarts via file
//     mtimes.
//
// The store is safe for concurrent use by one process. It does not
// coordinate multiple writer processes; the daemon owns its directory.
package store

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// FormatVersion is the on-disk container format. Bump on any header or
// layout change; readers treat other versions as stale (a miss, and the
// file is removed).
const FormatVersion = 2

// DefaultMaxBytes caps the store at 256 MiB of payload unless Options
// says otherwise — roughly half a million full-budget reports, far more
// than the complete §5 evaluation.
const DefaultMaxBytes int64 = 256 << 20

// magic identifies store entry files.
var magic = [4]byte{'I', 'C', 'R', 'S'}

// headerSize is the fixed entry prologue: magic, format u32, payload
// length u64, SHA-256 of the payload.
const headerSize = 4 + 4 + 8 + sha256.Size

const (
	entrySuffix      = ".icr"
	quarantineSuffix = ".quarantine"
	tmpPrefix        = ".tmp-"
)

// Options configure Open.
type Options struct {
	// MaxBytes caps total payload bytes; 0 means DefaultMaxBytes,
	// negative means unlimited.
	MaxBytes int64

	// OnEvict, when non-nil, is called (under no lock) with the number of
	// entries evicted by a Put that exceeded the cap.
	OnEvict func(n int)
}

// Stats are cumulative since Open (or backend construction), plus current
// occupancy. One struct serves every Backend; fields that do not apply to
// a given implementation stay zero.
type Stats struct {
	Hits        uint64 // Get served a report
	Misses      uint64 // Get found nothing (including invalidated entries)
	Puts        uint64 // entries written
	DupPuts     uint64 // identical re-writes skipped (recency refreshed only)
	Evictions   uint64 // entries removed by the size cap
	Quarantined uint64 // corrupt files renamed aside
	SchemaStale uint64 // entries dropped for a format/schema version mismatch
	ReadErrors  uint64 // Gets that failed transiently (I/O error, unreachable shard) — surfaced, not misses
	PutErrors   uint64 // Puts that failed (sick disk, unreachable shard)
	HotKeys     int    // keys currently replicated beyond their owner (Sharded)
	ReplicaOps  uint64 // reads/writes served by a non-owner replica (Sharded)
	Claims      uint64 // fleet claims granted (Sharded client / shard server)
	ClaimWaits  uint64 // claim requests that waited on another claimant (Sharded)
	Entries     int    // resident entries
	Bytes       int64  // resident payload bytes
}

type entry struct {
	key  string
	size int64
	elem *list.Element
}

// Store is a disk-backed report cache. See the package comment for the
// guarantees.
type Store struct {
	dir     string
	max     int64
	onEvict func(int)

	mu    sync.Mutex
	index map[string]*entry
	lru   *list.List // front = most recently used; values are *entry
	bytes int64
	stats Stats
}

// Open creates (if needed) and loads the store rooted at dir. Existing
// entries are indexed by file mtime so eviction order survives restarts;
// contents are validated lazily on Get. Leftover temp files from a
// crashed writer are removed.
func Open(dir string, o Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	max := o.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	s := &Store{
		dir:     dir,
		max:     max,
		onEvict: o.OnEvict,
		index:   make(map[string]*entry),
		lru:     list.New(),
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type seen struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []seen
	for _, de := range names {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A writer died mid-Put; the entry was never visible.
			os.Remove(filepath.Join(dir, name)) //icrvet:ignore droppederr best-effort cleanup of a crashed writer's temp file
			continue
		}
		key, ok := strings.CutSuffix(name, entrySuffix)
		if !ok || !ValidKey(key) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		size := info.Size() - headerSize
		if size < 0 {
			size = 0
		}
		found = append(found, seen{key: key, size: size, mtime: info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found {
		e := &entry{key: f.key, size: f.size}
		e.elem = s.lru.PushFront(e) // later mtime = more recent
		s.index[f.key] = e
		s.bytes += f.size
	}
	s.stats.Entries = len(s.index)
	s.stats.Bytes = s.bytes
	return s, nil
}

// Backend conformance: the disk store is the reference implementation.
var _ Backend = (*Store)(nil)

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Drain implements Backend. The disk store has nothing to flush — every
// Put is already atomic and fsynced — and must keep serving Gets and Puts
// through a drain so executing simulations can persist.
func (s *Store) Drain() {}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	return st
}

// Get returns the stored report for key, or an error wrapping ErrMiss on
// a miss. Invalidated entries are misses that are never consulted twice:
// corrupt files are quarantined, stale-schema ones removed, and an entry
// whose file vanished behind the store's back is dropped. A transient I/O
// failure (a sick disk: EIO, permissions) is NOT a miss — it is surfaced
// to the caller and counted in Stats.ReadErrors, with the index entry
// kept, so the caller can tell "re-simulate" from "this store is sick"
// and the daemon stops silently re-simulating everything.
func (s *Store) Get(ctx context.Context, key string) (*metrics.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !ValidKey(key) {
		return nil, fmt.Errorf("store: invalid key %q: %w", key, ErrMiss)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return nil, ErrMiss
	}
	rep, err := s.read(key)
	switch {
	case err == nil:
	case errors.Is(err, errStale):
		s.dropLocked(e)
		s.stats.SchemaStale++
		os.Remove(s.path(key)) //icrvet:ignore droppederr stale-schema entry: removal is best-effort, the index entry is already gone
		s.stats.Misses++
		return nil, fmt.Errorf("%w: %v", ErrMiss, err)
	case errors.Is(err, errCorrupt):
		s.dropLocked(e)
		s.quarantineLocked(key)
		s.stats.Misses++
		return nil, fmt.Errorf("%w: %v", ErrMiss, err)
	case errors.Is(err, fs.ErrNotExist):
		// The file was deleted externally: a clean miss, nothing to
		// quarantine.
		s.dropLocked(e)
		s.stats.Misses++
		return nil, ErrMiss
	default:
		// Transient I/O failure. Keep the entry — the next Get may
		// succeed — and surface the error instead of re-simulating.
		s.stats.ReadErrors++
		return nil, fmt.Errorf("store: reading %s: %w", key, err)
	}
	s.lru.MoveToFront(e.elem)
	now := time.Now()
	os.Chtimes(s.path(key), now, now) //icrvet:ignore droppederr recency mtime is a best-effort hint for the next Open
	s.stats.Hits++
	return rep, nil
}

// Put stores a report under key, atomically (write temp + rename), then
// evicts least-recently-used entries until the size cap is respected. A
// Put that fails leaves the previous entry (if any) intact.
//
// Re-putting identical bytes is detected and skipped (recency still
// refreshes). Content addressing makes this the common shape of a
// duplicate: a claim taken over from a holder that finished late, or two
// processes sharing the directory, produce byte-identical reports for the same key, and skipping
// the rewrite avoids both the write amplification and a quarantine window
// for concurrent readers.
func (s *Store) Put(ctx context.Context, key string, rep *metrics.Report) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if rep == nil {
		return errors.New("store: nil report")
	}
	payload, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	buf := encodeEntry(payload)
	size := int64(len(payload))

	s.mu.Lock()
	if old, ok := s.index[key]; ok && old.size == size {
		if cur, err := os.ReadFile(s.path(key)); err == nil && bytes.Equal(cur, buf) {
			s.lru.MoveToFront(old.elem)
			now := time.Now()
			os.Chtimes(s.path(key), now, now) //icrvet:ignore droppederr recency mtime is a best-effort hint for the next Open
			s.stats.DupPuts++
			s.mu.Unlock()
			return nil
		}
	}
	if err := s.writeAtomic(key, buf); err != nil {
		s.stats.PutErrors++
		s.mu.Unlock()
		return err
	}
	if old, ok := s.index[key]; ok {
		s.bytes -= old.size
		old.size = size
		s.bytes += old.size
		s.lru.MoveToFront(old.elem)
	} else {
		e := &entry{key: key, size: size}
		e.elem = s.lru.PushFront(e)
		s.index[key] = e
		s.bytes += e.size
	}
	s.stats.Puts++
	evicted := s.evictLocked()
	s.mu.Unlock()
	if evicted > 0 && s.onEvict != nil {
		s.onEvict(evicted)
	}
	return nil
}

// errStale marks an entry written under another container format, or
// whose payload's report schema metrics rejects: invalid, but not
// corrupt.
var errStale = errors.New("store: stale format or schema version")

// errCorrupt marks an entry whose bytes were read fine but do not
// validate: bad magic, length mismatch, checksum failure, undecodable
// payload. Corrupt entries are quarantined; transient I/O errors (which
// never wrap errCorrupt) are surfaced instead.
var errCorrupt = errors.New("store: corrupt entry")

// encodeEntry renders the bytes of one entry file: the header, then the
// payload (a report's JSON).
func encodeEntry(payload []byte) []byte {
	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:headerSize], sum[:])
	return append(buf, payload...)
}

// decodeEntry validates the bytes of one entry file and decodes its
// report. A returned error wraps errStale (invalid but clean) or
// errCorrupt (quarantine it).
func decodeEntry(data []byte) (*metrics.Report, error) {
	if len(data) < headerSize || !bytes.Equal(data[0:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic or truncated header", errCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("%w: container format %d", errStale, v)
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	payload := data[headerSize:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: payload length %d, header says %d", errCorrupt, len(payload), plen)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[16:headerSize]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", errCorrupt)
	}
	var rep metrics.Report
	if err := json.Unmarshal(payload, &rep); err != nil {
		if errors.Is(err, metrics.ErrReportSchema) {
			return nil, fmt.Errorf("%w: %v", errStale, err)
		}
		return nil, fmt.Errorf("%w: decoding payload: %v", errCorrupt, err)
	}
	return &rep, nil
}

// read loads and validates one entry. Callers hold s.mu. A returned error
// wraps errStale or errCorrupt (see decodeEntry), or is a raw I/O error
// from the filesystem (transient, caller decides).
func (s *Store) read(key string) (*metrics.Report, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, err
	}
	return decodeEntry(data)
}

// writeAtomic writes buf to key's path via a temp file and rename.
func (s *Store) writeAtomic(key string, buf []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()      //icrvet:ignore droppederr temp file is removed on the next line either way
		os.Remove(tmp) //icrvet:ignore droppederr best-effort removal of a failed write's temp file
	}
	if _, err := f.Write(buf); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //icrvet:ignore droppederr best-effort removal of a failed write's temp file
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp) //icrvet:ignore droppederr best-effort removal of a failed write's temp file
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// evictLocked removes LRU entries until the cap is respected, returning
// how many were evicted. The most recent entry is never evicted, so a cap
// smaller than one report still serves the warm path.
func (s *Store) evictLocked() int {
	if s.max < 0 {
		return 0
	}
	n := 0
	for s.bytes > s.max && s.lru.Len() > 1 {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.dropLocked(e)
		os.Remove(s.path(e.key)) //icrvet:ignore droppederr eviction removal is best-effort; the index entry is already gone
		s.stats.Evictions++
		n++
	}
	return n
}

// dropLocked removes e from the index and LRU list.
func (s *Store) dropLocked(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.index, e.key)
	s.bytes -= e.size
}

// quarantineLocked renames a corrupt entry aside so it is never re-read;
// quarantined files are ignored by Open and count toward nothing.
func (s *Store) quarantineLocked(key string) {
	os.Rename(s.path(key), s.path(key)+quarantineSuffix) //icrvet:ignore droppederr quarantine is best-effort: on failure the entry is already unindexed
	s.stats.Quarantined++
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// ValidKey accepts lowercase-hex keys only (runner.Key.String()'s form),
// which also guarantees the key is a safe file name and a safe URL path
// segment for the shard protocol.
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
