// Package fieldcache shares preprocessed field divisions across
// consumers by content address.
//
// The approximate grid division of Sec. 4.3 is FTTT's dominant
// preprocessing cost: every session the serving layer creates for the
// same deployment would otherwise re-run the full Apollonius-circle
// signature pass. A Cache keys each *field.Division by the SHA-256 of
// its build spec (field rect, node coordinates, uncertainty constant,
// cell size — field.Spec.Key), so sessions over one deployment share a
// single immutable division built exactly once, however many arrive
// concurrently (singleflight: late acquirers block on the first build).
//
// Entries are ref-counted. Acquire pins an entry and returns a release
// func; the serving layer ties release to session close. Eviction (over
// Config.MaxEntries) only considers entries with zero references, in
// least-recently-used order, so a pinned division is never yanked from
// under a live session.
//
// With Config.Dir set, each built division is spilled to
// <dir>/<key>.div via field.Save (atomic temp-file rename), and a cache
// miss first tries field.Load on that file — a restarted server, or a
// peer backend sharing the directory, warm-starts from disk instead of
// re-dividing. The file is field's CRC-checked binary spill format
// (DESIGN.md §13), several times cheaper to load than the division is
// to build. Spilled files survive in-memory eviction and are validated
// (field.Load's magic, version, CRC and invariant checks plus
// field.Spec.Matches) before adoption; a corrupt, mismatched or
// gob-era file counts a disk error and is rebuilt and overwritten,
// never trusted.
package fieldcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fttt/internal/field"
	"fttt/internal/obs"
)

// Config parameterizes a Cache. The zero value is a valid unbounded
// in-memory cache with no telemetry.
type Config struct {
	// Dir, when non-empty, is the disk-spill directory: built divisions
	// persist there as <key>.div and misses try disk before building.
	Dir string
	// MaxEntries bounds the number of in-memory entries; ≤ 0 means
	// unbounded. Only unreferenced entries are evicted, so the cache may
	// transiently exceed the bound while more than MaxEntries divisions
	// are pinned. Disk-spill files are not removed by eviction.
	MaxEntries int
	// Obs, when non-nil, receives the cache counters and gauges
	// (fttt_fieldcache_*).
	Obs *obs.Registry
}

// Cache is a content-addressed, ref-counted store of field divisions.
// All methods are safe for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry
	tick    uint64 // monotonic LRU clock, advanced under mu

	metrics *cacheMetrics
}

// cacheMetrics caches the handle lookups, following the obs convention:
// a nil *cacheMetrics (no registry attached) skips all bookkeeping.
type cacheMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	builds    *obs.Counter
	diskLoads *obs.Counter
	diskErrs  *obs.Counter
	evictions *obs.Counter
	gEntries  *obs.Gauge
	gBytes    *obs.Gauge
}

func newCacheMetrics(r *obs.Registry) *cacheMetrics {
	if r == nil {
		return nil
	}
	return &cacheMetrics{
		hits:      r.Counter("fttt_fieldcache_hits_total"),
		misses:    r.Counter("fttt_fieldcache_misses_total"),
		builds:    r.Counter("fttt_fieldcache_builds_total"),
		diskLoads: r.Counter("fttt_fieldcache_disk_loads_total"),
		diskErrs:  r.Counter("fttt_fieldcache_disk_errors_total"),
		evictions: r.Counter("fttt_fieldcache_evictions_total"),
		gEntries:  r.Gauge("fttt_fieldcache_entries"),
		gBytes:    r.Gauge("fttt_fieldcache_bytes"),
	}
}

func (m *cacheMetrics) hit() {
	if m != nil {
		m.hits.Inc()
	}
}

func (m *cacheMetrics) miss() {
	if m != nil {
		m.misses.Inc()
	}
}

func (m *cacheMetrics) build() {
	if m != nil {
		m.builds.Inc()
	}
}

func (m *cacheMetrics) diskLoad() {
	if m != nil {
		m.diskLoads.Inc()
	}
}

func (m *cacheMetrics) diskErr() {
	if m != nil {
		m.diskErrs.Inc()
	}
}

func (m *cacheMetrics) evict() {
	if m != nil {
		m.evictions.Inc()
	}
}

// size publishes the entry-count and byte gauges.
func (m *cacheMetrics) size(entries int, bytes int64) {
	if m != nil {
		m.gEntries.Set(float64(entries))
		m.gBytes.Set(float64(bytes))
	}
}

// entry is one cached division. Fields other than ready/div/err/bytes
// are guarded by Cache.mu; div, err and bytes are written once by the
// builder before close(ready) and read-only afterwards.
type entry struct {
	ready   chan struct{} // closed when div/err are final
	div     *field.Division
	err     error
	bytes   int64
	refs    int
	lastUse uint64
}

// New builds a Cache. When cfg.Dir is set the directory is created
// eagerly so a misconfigured path fails at construction, not on the
// first miss.
func New(cfg Config) (*Cache, error) {
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("fieldcache: creating spill dir: %w", err)
		}
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[string]*entry),
		metrics: newCacheMetrics(cfg.Obs),
	}, nil
}

// Acquire returns the division for spec, building (or disk-loading) it
// on first use, and pins it until release is called. Concurrent
// Acquires for one key share a single build; every acquirer joining an
// entry that already exists — built or still building — counts as a
// hit. release is idempotent and must be called exactly when the
// acquirer is done (the serving layer calls it from session close); the
// division must not be used after release.
func (c *Cache) Acquire(spec field.Spec) (div *field.Division, release func(), err error) {
	key := spec.Key()

	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		e.refs++
		e.lastUse = c.nextTickLocked()
		c.mu.Unlock()
		c.metrics.hit()
		<-e.ready
		if e.err != nil {
			// The build we joined failed; its entry is already gone from
			// the map (the builder removed it before closing ready), so
			// there is nothing to release.
			return nil, nil, e.err
		}
		return e.div, c.releaseFunc(key, e), nil
	}

	// Miss: install a building entry, then build outside the lock.
	e = &entry{ready: make(chan struct{}), refs: 1, lastUse: c.nextTickLocked()}
	c.entries[key] = e
	c.metrics.size(len(c.entries), c.bytesLocked())
	c.mu.Unlock()
	c.metrics.miss()

	d, berr := c.provide(spec, key)

	c.mu.Lock()
	if berr != nil {
		// Failed builds never stay resident: drop the entry before
		// releasing the waiters so the next Acquire retries.
		delete(c.entries, key)
		c.metrics.size(len(c.entries), c.bytesLocked())
		c.mu.Unlock()
		e.err = berr
		close(e.ready)
		return nil, nil, berr
	}
	e.div = d
	e.bytes = d.ApproxBytes()
	c.evictLocked()
	c.metrics.size(len(c.entries), c.bytesLocked())
	c.mu.Unlock()
	close(e.ready)
	return d, c.releaseFunc(key, e), nil
}

// provide produces the division for a miss: disk spill first (validated
// via field.Load's invariants plus spec.Matches), then a fresh build
// which is spilled back to disk on success.
func (c *Cache) provide(spec field.Spec, key string) (*field.Division, error) {
	if c.cfg.Dir != "" {
		if d, err := c.loadSpill(spec, key); err == nil {
			c.metrics.diskLoad()
			return d, nil
		} else if !os.IsNotExist(err) {
			// Present but unusable: count it, then fall through to a
			// rebuild that overwrites the bad file.
			c.metrics.diskErr()
		}
	}
	d, err := spec.Divide()
	if err != nil {
		return nil, err
	}
	c.metrics.build()
	if c.cfg.Dir != "" {
		if err := c.saveSpill(d, key); err != nil {
			// Spill failure degrades persistence, not correctness.
			c.metrics.diskErr()
		}
	}
	return d, nil
}

func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.cfg.Dir, key+".div")
}

func (c *Cache) loadSpill(spec field.Spec, key string) (*field.Division, error) {
	f, err := os.Open(c.spillPath(key))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := field.Load(f)
	if err != nil {
		return nil, err
	}
	if err := spec.Matches(d); err != nil {
		return nil, fmt.Errorf("fieldcache: spill file %s: %w", c.spillPath(key), err)
	}
	return d, nil
}

// saveSpill persists atomically: write a temp file in the same
// directory, then rename over the final path, so a crash mid-write can
// never leave a truncated <key>.div for a later Load to trip on.
func (c *Cache) saveSpill(d *field.Division, key string) error {
	path := c.spillPath(key)
	tmp, err := os.CreateTemp(c.cfg.Dir, key+".tmp*")
	if err != nil {
		return err
	}
	if err := d.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// releaseFunc builds the idempotent unpin closure handed to acquirers.
func (c *Cache) releaseFunc(key string, e *entry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			e.refs--
			e.lastUse = c.nextTickLocked()
			c.evictLocked()
		})
	}
}

// evictLocked drops least-recently-used unreferenced entries while the
// cache exceeds MaxEntries. Building entries are never candidates (they
// hold their builder's reference), and disk-spill files are untouched —
// a re-miss warm-starts from disk.
func (c *Cache) evictLocked() {
	if c.cfg.MaxEntries <= 0 {
		return
	}
	for len(c.entries) > c.cfg.MaxEntries {
		var victimKey string
		var victim *entry
		for k, e := range c.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return // everything pinned; transiently over the bound
		}
		delete(c.entries, victimKey)
		c.metrics.evict()
	}
	c.metrics.size(len(c.entries), c.bytesLocked())
}

// bytesLocked sums ApproxBytes over resident, finished entries.
func (c *Cache) bytesLocked() int64 {
	var total int64
	for _, e := range c.entries {
		total += e.bytes
	}
	return total
}

func (c *Cache) nextTickLocked() uint64 {
	c.tick++
	return c.tick
}

// Len reports the number of resident entries (including in-flight
// builds).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the estimated resident size of finished entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesLocked()
}
