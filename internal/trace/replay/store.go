package replay

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Options tune a Store. The zero value selects the defaults noted on each
// field. The defaults are sized for traces, which are orders of magnitude
// larger than the shard results shardcache holds: a 2M-instruction trace
// is ~64 MiB resident and a few MiB encoded on disk.
type Options struct {
	// MaxEntries bounds the memory tier's trace count (default 64).
	MaxEntries int
	// MaxBytes bounds the memory tier's total resident bytes as accounted
	// by Trace.MemBytes (default 1 GiB). A single trace larger than the
	// bound bypasses the memory tier but is still written to disk.
	MaxBytes int64
	// Dir enables the disk tier: one checksummed trr1 file per key under
	// this directory, created if needed. Empty disables the tier. Like
	// shardcache, the disk tier is not size-bounded — point it at storage
	// sized for the coordinate universe being served.
	Dir string
}

// Stats is a snapshot of the store's counters, the backing for the
// /v1/stats trace gauges. Hits counts every request served without a
// fresh generation — memory, disk, and singleflight followers alike;
// DiskHits is the subset decoded from the disk tier. Bytes is the memory
// tier's resident size per Trace.MemBytes.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	DiskHits  int64 `json:"disk_hits"`
}

// Store is a bounded, two-tier, singleflight-deduplicating cache of
// materialized traces, keyed by a caller-chosen canonical name for the
// stream's coordinate. It is the shardcache design with a decoded value
// type: the memory tier holds ready-to-replay *Trace values, the disk
// tier holds their checksummed trr1 encodings. Safe for concurrent
// use; a cached Trace is immutable and may be replayed by any number of
// goroutines at once.
type Store struct {
	opts Options

	mu       sync.Mutex
	lru      *list.List // front = most recently used; element values are *entry
	byKey    map[string]*list.Element
	bytes    int64
	inflight map[string]*flight
	stats    Stats
}

type entry struct {
	key string
	tr  *Trace
}

// flight is one in-progress generation; followers block on done and read
// tr/err, which the leader sets before closing the channel.
type flight struct {
	done chan struct{}
	tr   *Trace
	err  error
}

// New returns a store with the given options. The disk directory, if any,
// is created eagerly so a misconfigured path fails at startup rather than
// as silent per-entry write errors; temp files orphaned by a crash
// mid-write are swept.
func New(opts Options) (*Store, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 64
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 1 << 30
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("replay: creating %s: %w", opts.Dir, err)
		}
		if ents, err := os.ReadDir(opts.Dir); err == nil {
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					_ = os.Remove(filepath.Join(opts.Dir, e.Name()))
				}
			}
		}
	}
	return &Store{
		opts:     opts,
		lru:      list.New(),
		byKey:    map[string]*list.Element{},
		inflight: map[string]*flight{},
	}, nil
}

// validKey guards the disk tier against keys that could escape Dir or
// collide with temp files. Canonical trace keys (version prefix + hex
// digest) always pass.
func validKey(key string) bool {
	return key != "" && !strings.ContainsAny(key, "/\\") && key != "." && key != ".." && !strings.HasSuffix(key, ".tmp")
}

// Get returns the cached trace for key, consulting memory then disk. A
// disk hit is decoded and promoted into the memory tier.
func (s *Store) Get(key string) (*Trace, bool) {
	s.mu.Lock()
	if tr, ok := s.memGetLocked(key); ok {
		s.stats.Hits++
		s.mu.Unlock()
		return tr, true
	}
	s.mu.Unlock()
	if tr, ok := s.readDisk(key); ok {
		s.mu.Lock()
		s.stats.Hits++
		s.stats.DiskHits++
		s.insertLocked(key, tr)
		s.mu.Unlock()
		return tr, true
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// Put stores a trace computed elsewhere in both tiers. Re-putting an
// existing key replaces its value.
func (s *Store) Put(key string, tr *Trace) {
	s.mu.Lock()
	s.insertLocked(key, tr)
	s.mu.Unlock()
	s.writeDisk(key, tr)
}

// Remove drops key from both tiers.
func (s *Store) Remove(key string) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.removeLocked(el, false)
	}
	s.mu.Unlock()
	if s.opts.Dir != "" && validKey(key) {
		_ = os.Remove(filepath.Join(s.opts.Dir, key))
	}
}

// Do returns the trace for key, generating it at most once across
// concurrent callers: the first caller (the leader) checks the disk tier
// and then runs generate; followers arriving while the leader is in
// flight block and share its result. hit reports whether the trace was
// served without running generate in this call — the "second observer of
// a coordinate never regenerates" guarantee is exactly this path.
//
// Callers stay independent, with the same contract as shardcache.Do: a
// follower waits under its own ctx and returns ctx.Err() promptly when
// cancelled, and a leader's failure (including its own cancelled context)
// is never adopted by followers — they re-enter and one of them leads a
// fresh generation under its own context. A generation error is returned
// only to the caller whose generation it was, and nothing is cached.
func (s *Store) Do(ctx context.Context, key string, generate func() (*Trace, error)) (tr *Trace, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		s.mu.Lock()
		if tr, ok := s.memGetLocked(key); ok {
			s.stats.Hits++
			s.mu.Unlock()
			return tr, true, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err != nil {
				continue
			}
			s.mu.Lock()
			s.stats.Hits++
			s.mu.Unlock()
			return f.tr, true, nil
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		tr, fromDisk := s.readDisk(key)
		if !fromDisk {
			tr, err = generate()
		}

		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			if fromDisk {
				s.stats.Hits++
				s.stats.DiskHits++
			} else {
				s.stats.Misses++
			}
			s.insertLocked(key, tr)
		} else {
			s.stats.Misses++
		}
		s.mu.Unlock()
		f.tr, f.err = tr, err
		close(f.done)
		if err != nil {
			return nil, false, err
		}
		if !fromDisk {
			s.writeDisk(key, tr)
		}
		return tr, fromDisk, nil
	}
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}

// memGetLocked looks key up in the memory tier, refreshing its recency.
func (s *Store) memGetLocked(key string) (*Trace, bool) {
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).tr, true
}

// insertLocked adds or replaces key in the memory tier and evicts from
// the cold end until the bounds hold again. An oversized trace is not
// admitted (it would evict the whole tier for one entry).
func (s *Store) insertLocked(key string, tr *Trace) {
	if tr.MemBytes() > s.opts.MaxBytes {
		if el, ok := s.byKey[key]; ok {
			s.removeLocked(el, false)
		}
		return
	}
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*entry)
		s.bytes += tr.MemBytes() - e.tr.MemBytes()
		e.tr = tr
		s.lru.MoveToFront(el)
	} else {
		s.byKey[key] = s.lru.PushFront(&entry{key: key, tr: tr})
		s.bytes += tr.MemBytes()
	}
	for s.lru.Len() > s.opts.MaxEntries || s.bytes > s.opts.MaxBytes {
		oldest := s.lru.Back()
		if oldest == nil || oldest == s.lru.Front() {
			break
		}
		s.removeLocked(oldest, true)
	}
}

func (s *Store) removeLocked(el *list.Element, evicted bool) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.byKey, e.key)
	s.bytes -= e.tr.MemBytes()
	if evicted {
		s.stats.Evictions++
	}
}

// Disk tier file format: sha256(payload) followed by the trr1 payload.
// The checksum turns any torn write, truncation, or bit rot into a miss.
const diskSumLen = sha256.Size

// readDisk loads, verifies, and decodes key's file; a corrupt entry —
// failing either the checksum or the strict trr1 decode — is deleted and
// reported as a miss, so a damaged or incompatible file degrades to a
// regeneration, never a wrong stream.
func (s *Store) readDisk(key string) (*Trace, bool) {
	if s.opts.Dir == "" || !validKey(key) {
		return nil, false
	}
	path := filepath.Join(s.opts.Dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(data) < diskSumLen {
		_ = os.Remove(path)
		return nil, false
	}
	payload := data[diskSumLen:]
	if sha256.Sum256(payload) != [diskSumLen]byte(data[:diskSumLen]) {
		_ = os.Remove(path)
		return nil, false
	}
	tr, err := Decode(payload)
	if err != nil {
		_ = os.Remove(path)
		return nil, false
	}
	return tr, true
}

// writeDisk stores key's trace atomically: encode, write a temp file in
// the same directory, rename over the final name. Write failures are
// silent — the disk tier is an accelerator, never a correctness
// dependency.
func (s *Store) writeDisk(key string, tr *Trace) {
	if s.opts.Dir == "" || !validKey(key) {
		return
	}
	val := Encode(tr)
	tmp, err := os.CreateTemp(s.opts.Dir, key+"-*.tmp")
	if err != nil {
		return
	}
	sum := sha256.Sum256(val)
	_, werr := tmp.Write(sum[:])
	if werr == nil {
		_, werr = tmp.Write(val)
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.opts.Dir, key)); err != nil {
		_ = os.Remove(tmp.Name())
	}
}
