// Package runstore is the durable half of the observability stack: a
// content-addressed, append-only store of completed simulation runs under
// .caps/runs/. Every record carries the run's identity (config hash, git
// revision, benchmark, prefetcher, scheduler), its full stats.Sim counters
// and — when profiling was on — its capsprof profile, so any two runs from
// the history can be compared with profile.Diff long after the processes
// that produced them exited.
//
// Storage layout:
//
//	<dir>/runs.jsonl   one JSON record per line, append-only
//	<dir>/index.json   derived index (headline fields + offsets); a cache,
//	                   rebuilt from the log whenever it is missing or stale
//
// Records are addressed by the SHA-256 of their content (timestamp
// excluded), and deduplicated on (config hash, bench): re-running an
// identical configuration appends nothing, while a changed tree or config
// appends a new record that supersedes the old one in queries. The log
// itself never loses history until GC compacts it.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"caps/internal/config"
	"caps/internal/profile"
	"caps/internal/stats"
)

// Record is one completed run.
type Record struct {
	ID         string `json:"id"`          // content address (sha256, truncated)
	ConfigHash string `json:"config_hash"` // hash of the derived GPUConfig + prefetcher
	GitRev     string `json:"git_rev,omitempty"`
	CreatedAt  int64  `json:"created_at"` // unix seconds; excluded from ID

	Bench      string `json:"bench"`
	Prefetcher string `json:"prefetcher"`
	Scheduler  string `json:"scheduler"`
	MaxInsts   int64  `json:"max_insts,omitempty"`

	// Headline metrics, duplicated out of Stats so index rows and run
	// tables never need the full record.
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	Coverage     float64 `json:"coverage"`
	Accuracy     float64 `json:"accuracy"`

	// Aborted marks a run that did not complete (interrupt, invariant
	// violation, watchdog); its stats are partial. AbortReason says why and
	// FlightDump, when a black box was written, points at the dump file so
	// capsd show can surface it.
	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`
	FlightDump  string `json:"flight_dump,omitempty"`

	Stats   *stats.Sim       `json:"stats,omitempty"`
	Profile *profile.Profile `json:"profile,omitempty"`

	// Lenses holds the run's lens profiles (see internal/lenses) as JSON,
	// keyed by lens name ("host", "mem", "sched"). Whether a lens was
	// attached is not part of the run's identity, and a host profile's
	// wall-clock varies run to run, so lenses are excluded from the content
	// address: runs with and without them still dedup to one record.
	Lenses map[string]json.RawMessage `json:"lenses,omitempty"`
}

// NewRecord builds a record from a finished run. profile may be nil (no
// collector attached); the git revision is discovered from the working
// tree.
func NewRecord(cfg config.GPUConfig, bench, prefetcher string, st *stats.Sim, p *profile.Profile) *Record {
	r := &Record{
		ConfigHash: ConfigHash(cfg, prefetcher),
		GitRev:     GitRevision(),
		Bench:      bench,
		Prefetcher: prefetcher,
		Scheduler:  string(cfg.Scheduler),
		MaxInsts:   cfg.MaxInsts,
		Stats:      st,
		Profile:    p,
	}
	if st != nil {
		r.Cycles = st.Cycles
		r.Instructions = st.Instructions
		r.IPC = st.IPC()
		r.Coverage = st.Coverage()
		r.Accuracy = st.Accuracy()
	}
	r.ID = r.contentID()
	return r
}

// contentID hashes the record with its mutable fields (ID, CreatedAt)
// zeroed, so identical reruns of an identical tree produce identical
// addresses.
func (r *Record) contentID() string {
	clone := *r
	clone.ID = ""
	clone.CreatedAt = 0
	clone.Lenses = nil // attachment choice and wall-clock are not content
	data, err := json.Marshal(&clone)
	if err != nil {
		// Record is a tree of marshalable values; unreachable, but an
		// address must still come out deterministic.
		data = []byte(fmt.Sprintf("%+v", clone))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// MarkAborted flags the record as an incomplete run and re-addresses it.
// dumpPath may be empty (no flight recorder attached).
func (r *Record) MarkAborted(reason, dumpPath string) *Record {
	r.Aborted = true
	r.AbortReason = reason
	r.FlightDump = dumpPath
	r.ID = r.contentID()
	return r
}

// AttachLens stores a lens profile under its name. Lenses are excluded
// from the content address, so attaching never re-addresses the record.
func (r *Record) AttachLens(name string, p any) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if r.Lenses == nil {
		r.Lenses = make(map[string]json.RawMessage)
	}
	r.Lenses[name] = data
	return nil
}

// DedupKey is the identity under which newer records supersede older ones.
// Aborted runs dedup under a separate key so a crash record never
// supersedes (or is superseded by) a healthy run of the same config.
func (r *Record) DedupKey() string {
	key := r.ConfigHash + "|" + r.Bench
	if r.Aborted {
		key += "|aborted"
	}
	return key
}

// ConfigHash addresses a run configuration: the fully derived GPUConfig
// plus the prefetcher name (the one run parameter living outside the
// config struct). JSON field order is fixed by the struct definition, so
// the digest is deterministic.
func ConfigHash(cfg config.GPUConfig, prefetcher string) string {
	data, err := json.Marshal(struct {
		Cfg        config.GPUConfig
		Prefetcher string
	}{cfg, prefetcher})
	if err != nil {
		data = []byte(fmt.Sprintf("%+v|%s", cfg, prefetcher))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:12]
}
