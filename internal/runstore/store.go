package runstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// DefaultDir is the conventional store location inside a working tree.
const DefaultDir = ".caps/runs"

const (
	logName   = "runs.jsonl"
	indexName = "index.json"
)

// Entry is one run's index row: everything a table, query or dedup check
// needs without reading the full record back from the log.
type Entry struct {
	ID           string  `json:"id"`
	ConfigHash   string  `json:"config_hash"`
	GitRev       string  `json:"git_rev,omitempty"`
	CreatedAt    int64   `json:"created_at"`
	Bench        string  `json:"bench"`
	Prefetcher   string  `json:"prefetcher"`
	Scheduler    string  `json:"scheduler"`
	MaxInsts     int64   `json:"max_insts,omitempty"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	Coverage     float64 `json:"coverage"`
	Accuracy     float64 `json:"accuracy"`
	HasProfile   bool    `json:"has_profile"`
	Aborted      bool    `json:"aborted,omitempty"`
	AbortReason  string  `json:"abort_reason,omitempty"`
	FlightDump   string  `json:"flight_dump,omitempty"`
	Offset       int64   `json:"offset"`
	Length       int64   `json:"length"`
}

// dedupKey mirrors Record.DedupKey (aborted runs live under their own key).
func (e *Entry) dedupKey() string {
	key := e.ConfigHash + "|" + e.Bench
	if e.Aborted {
		key += "|aborted"
	}
	return key
}

// indexFile is the on-disk shape of the derived index.
type indexFile struct {
	LogSize int64    `json:"log_size"`
	Entries []*Entry `json:"entries"`
}

// Store is an open run store. Safe for concurrent use within one process;
// appends are O_APPEND writes so concurrent writers from separate processes
// degrade to last-index-wins rather than corrupting the log (Open always
// re-scans a log the index does not fully cover).
type Store struct {
	dir string

	mu      sync.Mutex
	entries []*Entry          // log order
	byID    map[string]*Entry // every record ever appended
	byKey   map[string]*Entry // dedup key → latest record
	logSize int64
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{dir: dir, byID: make(map[string]*Entry), byKey: make(map[string]*Entry)}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) logPath() string   { return filepath.Join(s.dir, logName) }
func (s *Store) indexPath() string { return filepath.Join(s.dir, indexName) }

// load populates the in-memory index: from index.json when it matches the
// log's current size, otherwise by scanning the log.
func (s *Store) load() error {
	fi, err := os.Stat(s.logPath())
	if os.IsNotExist(err) {
		return nil // empty store
	}
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if data, ierr := os.ReadFile(s.indexPath()); ierr == nil {
		var idx indexFile
		if json.Unmarshal(data, &idx) == nil && idx.LogSize == fi.Size() {
			for _, e := range idx.Entries {
				s.admit(e)
			}
			s.logSize = idx.LogSize
			return nil
		}
	}
	return s.scan()
}

// scan rebuilds the index from the log. A torn final line (crashed append)
// is tolerated and ignored; everything before it must parse.
func (s *Store) scan() error {
	f, err := os.Open(s.logPath())
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()

	s.entries, s.byID, s.byKey = nil, make(map[string]*Entry), make(map[string]*Entry)
	rd := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 && err == nil {
			var rec Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				return fmt.Errorf("runstore: %s: corrupt record at offset %d: %w", s.logPath(), off, jerr)
			}
			s.admit(entryFor(&rec, off, int64(len(line))))
			off += int64(len(line))
			continue
		}
		if err == io.EOF {
			// len(line) > 0 here means a torn trailing write; drop it.
			break
		}
		if err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
	}
	s.logSize = off
	return s.writeIndex()
}

// admit installs an entry into the in-memory maps (latest wins per key).
func (s *Store) admit(e *Entry) {
	s.entries = append(s.entries, e)
	s.byID[e.ID] = e
	s.byKey[e.dedupKey()] = e
}

func entryFor(r *Record, off, length int64) *Entry {
	return &Entry{
		ID: r.ID, ConfigHash: r.ConfigHash, GitRev: r.GitRev, CreatedAt: r.CreatedAt,
		Bench: r.Bench, Prefetcher: r.Prefetcher, Scheduler: r.Scheduler, MaxInsts: r.MaxInsts,
		Cycles: r.Cycles, Instructions: r.Instructions,
		IPC: r.IPC, Coverage: r.Coverage, Accuracy: r.Accuracy,
		HasProfile: r.Profile != nil,
		Aborted:    r.Aborted, AbortReason: r.AbortReason, FlightDump: r.FlightDump,
		Offset: off, Length: length,
	}
}

// writeIndex persists the derived index (best-effort cache: errors are
// returned but a missing index only costs the next Open a scan).
func (s *Store) writeIndex() error {
	idx := indexFile{LogSize: s.logSize, Entries: s.entries}
	data, err := json.Marshal(&idx)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return os.Rename(tmp, s.indexPath())
}

// Put appends a record. When a record with the same content address is
// already the latest for its (config hash, bench) identity, nothing is
// written and dup is true — re-running an unchanged configuration is free.
// A same-identity record with different content supersedes the old one.
func (s *Store) Put(r *Record) (id string, dup bool, err error) {
	if r.ID == "" {
		r.ID = r.contentID()
	}
	if r.CreatedAt == 0 {
		r.CreatedAt = time.Now().Unix()
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	if cur, ok := s.byKey[r.DedupKey()]; ok && cur.ID == r.ID {
		return r.ID, true, nil
	}
	line, err := json.Marshal(r)
	if err != nil {
		return "", false, fmt.Errorf("runstore: %w", err)
	}
	line = append(line, '\n')

	f, err := os.OpenFile(s.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", false, fmt.Errorf("runstore: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return "", false, fmt.Errorf("runstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", false, fmt.Errorf("runstore: %w", err)
	}
	s.admit(entryFor(r, s.logSize, int64(len(line))))
	s.logSize += int64(len(line))
	if err := s.writeIndex(); err != nil {
		return "", false, err
	}
	return r.ID, false, nil
}

// Get loads a record by ID or unique ID prefix.
func (s *Store) Get(idOrPrefix string) (*Record, error) {
	s.mu.Lock()
	e, err := s.resolve(idOrPrefix)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.read(e)
}

// resolve finds an entry by exact ID, then by unique prefix. Caller holds mu.
func (s *Store) resolve(idOrPrefix string) (*Entry, error) {
	if e, ok := s.byID[idOrPrefix]; ok {
		return e, nil
	}
	var matches []*Entry
	for _, e := range s.entries {
		if len(idOrPrefix) > 0 && len(e.ID) >= len(idOrPrefix) && e.ID[:len(idOrPrefix)] == idOrPrefix {
			matches = append(matches, e)
		}
	}
	switch len(matches) {
	case 0:
		return nil, fmt.Errorf("runstore: no run %q", idOrPrefix)
	case 1:
		return matches[0], nil
	default:
		ids := make([]string, len(matches))
		for i, m := range matches {
			ids[i] = m.ID
		}
		sort.Strings(ids)
		return nil, fmt.Errorf("runstore: ambiguous prefix %q matches %v", idOrPrefix, ids)
	}
}

// read loads and verifies one record from the log.
func (s *Store) read(e *Entry) (*Record, error) {
	f, err := os.Open(s.logPath())
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	buf := make([]byte, e.Length)
	if _, err := f.ReadAt(buf, e.Offset); err != nil {
		return nil, fmt.Errorf("runstore: read %s: %w", e.ID, err)
	}
	var rec Record
	if err := json.Unmarshal(buf, &rec); err != nil {
		return nil, fmt.Errorf("runstore: record %s: %w", e.ID, err)
	}
	if rec.ID != e.ID {
		return nil, fmt.Errorf("runstore: record at offset %d is %s, index says %s — stale index, delete %s",
			e.Offset, rec.ID, e.ID, s.indexPath())
	}
	return &rec, nil
}

// Query filters List results. Zero fields match everything.
type Query struct {
	Bench      string
	Prefetcher string
	ConfigHash string
	All        bool // include superseded records, not just the latest per identity
}

// List returns index entries matching q, sorted by (bench, prefetcher,
// scheduler, created-at, id) — a stable order for tables and golden tests.
func (s *Store) List(q Query) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Entry
	for _, e := range s.entries {
		if !q.All && s.byKey[e.dedupKey()] != e {
			continue // superseded
		}
		if q.Bench != "" && e.Bench != q.Bench {
			continue
		}
		if q.Prefetcher != "" && e.Prefetcher != q.Prefetcher {
			continue
		}
		if q.ConfigHash != "" && e.ConfigHash != q.ConfigHash {
			continue
		}
		c := *e
		out = append(out, &c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Prefetcher != b.Prefetcher {
			return a.Prefetcher < b.Prefetcher
		}
		if a.Scheduler != b.Scheduler {
			return a.Scheduler < b.Scheduler
		}
		if a.CreatedAt != b.CreatedAt {
			return a.CreatedAt < b.CreatedAt
		}
		return a.ID < b.ID
	})
	return out
}

// Len returns the number of live (non-superseded) records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// GC compacts the log to only the live records (latest per identity),
// returning how many superseded records were dropped. The new log is
// written beside the old one and swapped in atomically.
func (s *Store) GC() (removed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var live []*Entry
	for _, e := range s.entries {
		if s.byKey[e.dedupKey()] == e {
			live = append(live, e)
		} else {
			removed++
		}
	}
	if removed == 0 {
		return 0, nil
	}
	tmp := s.logPath() + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("runstore: %w", err)
	}
	var newEntries []*Entry
	var off int64
	for _, e := range live {
		rec, rerr := s.read(e)
		if rerr != nil {
			out.Close()
			os.Remove(tmp)
			return 0, rerr
		}
		line, merr := json.Marshal(rec)
		if merr != nil {
			out.Close()
			os.Remove(tmp)
			return 0, fmt.Errorf("runstore: %w", merr)
		}
		line = append(line, '\n')
		if _, werr := out.Write(line); werr != nil {
			out.Close()
			os.Remove(tmp)
			return 0, fmt.Errorf("runstore: %w", werr)
		}
		ne := *e
		ne.Offset, ne.Length = off, int64(len(line))
		newEntries = append(newEntries, &ne)
		off += int64(len(line))
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp, s.logPath()); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("runstore: %w", err)
	}
	s.entries, s.byID, s.byKey = nil, make(map[string]*Entry), make(map[string]*Entry)
	for _, e := range newEntries {
		s.admit(e)
	}
	s.logSize = off
	return removed, s.writeIndex()
}
