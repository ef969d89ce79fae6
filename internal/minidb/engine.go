package minidb

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/minidb/segment"
)

// The disk engine makes a Database durable. Row mutations are logged to a
// tail WAL before the commit is acknowledged (group commit amortizes the
// fsync across concurrent committers); a background compactor seals full
// vecBlockSize-row runs of each table's tail into immutable columnar
// segment files with per-block zone maps, merges small segments, and
// periodically checkpoints the whole database into a fresh WAL so the log
// never grows without bound. Startup replays the committed WAL prefix,
// truncates any torn tail, reattaches segment files, and deletes orphans
// left by a crash mid-compaction.
//
// Lock order: compactMu (compaction admission) > db.mu > wal.mu / syncMu.
// WAL records are appended under the database write lock, so log order
// always equals apply order. Fsyncs never run under db.mu.

// Fixed disk-engine tuning. A fresh engine starts with zone-map block
// skipping on; SetZoneMapPruning toggles it at run time.
const (
	// pageCacheShards is the decoded-block cache's shard count.
	pageCacheShards = 8
	// checkpointBytes is the WAL size that triggers a checkpoint rollover.
	checkpointBytes = 8 << 20
)

// Options configures a disk-backed database opened with Open.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// PageCacheBytes is the decoded-block cache budget. 0 means the
	// 64 MiB default; negative disables caching (the cold ablation).
	PageCacheBytes int64
	// DisableGroupCommit serializes committers, one fsync each — the
	// baseline the group-commit speedup is measured against.
	DisableGroupCommit bool
	// SealRows is the tail length that triggers sealing into a segment,
	// rounded up to a multiple of vecBlockSize. 0 means 4096.
	SealRows int
	// MergeSegments is the per-table segment-file count that triggers a
	// merge compaction. 0 means 8.
	MergeSegments int
	// DisableAutoCompact stops the background compactor; tests drive
	// sealing and checkpoints explicitly via Seal and Checkpoint.
	DisableAutoCompact bool
}

func (o *Options) normalize() {
	if o.PageCacheBytes == 0 {
		o.PageCacheBytes = 64 << 20
	}
	if o.PageCacheBytes < 0 {
		o.PageCacheBytes = 0
	}
	if o.SealRows <= 0 {
		o.SealRows = 4096
	}
	o.SealRows = (o.SealRows + vecBlockMask) &^ vecBlockMask
	if o.MergeSegments <= 0 {
		o.MergeSegments = 8
	}
}

// Engine identifies the storage engine backing a Database.
type Engine interface {
	// Kind returns "memory" or "disk".
	Kind() string
	// Stats snapshots the engine's counters.
	Stats() EngineStats
}

// Engine returns the database's storage engine.
func (db *Database) Engine() Engine {
	if db.eng == nil {
		return memoryEngine{}
	}
	return db.eng
}

// memoryEngine is the zero-cost engine behind NewDatabase: no WAL, no
// segments, rows live in table tails forever. It is retained as the
// differential oracle the disk engine is checked against.
type memoryEngine struct{}

func (memoryEngine) Kind() string       { return "memory" }
func (memoryEngine) Stats() EngineStats { return EngineStats{Engine: "memory"} }

// EngineStats is a point-in-time snapshot of engine counters.
type EngineStats struct {
	Engine string `json:"engine"`
	Dir    string `json:"dir,omitempty"`

	PageCacheBudget    int64 `json:"pageCacheBudget,omitempty"`
	PageCacheBytes     int64 `json:"pageCacheBytes,omitempty"`
	PageCacheHits      int64 `json:"pageCacheHits,omitempty"`
	PageCacheMisses    int64 `json:"pageCacheMisses,omitempty"`
	PageCacheEvictions int64 `json:"pageCacheEvictions,omitempty"`

	BlocksScanned int64 `json:"blocksScanned,omitempty"`
	BlocksSkipped int64 `json:"blocksSkipped,omitempty"`

	WALBytes  int64 `json:"walBytes,omitempty"`
	WALFsyncs int64 `json:"walFsyncs,omitempty"`
	Commits   int64 `json:"commits,omitempty"`

	Seals       int64 `json:"seals,omitempty"`
	Merges      int64 `json:"merges,omitempty"`
	Checkpoints int64 `json:"checkpoints,omitempty"`

	Segments   int `json:"segments,omitempty"`
	SealedRows int `json:"sealedRows,omitempty"`
	TailRows   int `json:"tailRows,omitempty"`

	ZoneMapPruning bool `json:"zoneMapPruning,omitempty"`
	GroupCommit    bool `json:"groupCommit,omitempty"`
}

type diskEngine struct {
	db    *Database
	opts  Options
	dir   string
	cache *segment.PageCache

	// files maps live segment-file ids to open handles; guarded by db.mu.
	// Retired files are closed and dropped here immediately but stay on
	// disk until the next checkpoint sweep, because the current WAL's
	// historical seal records still reference them on replay.
	files   map[uint64]*segment.File
	fileSeq atomic.Uint64

	// wal is swapped by checkpoints under db.mu + syncMu + compactMu, so
	// holding any one of the three makes the read consistent.
	wal         *segment.WAL
	walID       uint64
	fsyncsPrior int64 // fsyncs issued by retired WALs

	// Group-commit state. appended counts WAL records; durable is the
	// highest appended count known fsynced; one leader at a time fsyncs
	// with syncMu released, followers wait on syncCond.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	durable  uint64
	syncing  bool
	syncErr  error
	appended atomic.Uint64
	noSync   atomic.Bool

	pruneOn   atomic.Bool
	replaying bool

	compactMu sync.Mutex // serializes seal/merge/checkpoint passes
	wake      chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	seals         atomic.Int64
	merges        atomic.Int64
	checkpoints   atomic.Int64
	blocksScanned atomic.Int64
	blocksSkipped atomic.Int64
}

func (e *diskEngine) Kind() string { return "disk" }

// Open opens (or creates) a disk-backed database at opts.Dir, replaying
// the WAL's committed prefix and reattaching segment files.
func Open(opts Options) (*Database, error) {
	if opts.Dir == "" {
		return nil, errf("exec", "minidb: Open requires Options.Dir")
	}
	opts.normalize()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	db := NewDatabase()
	e := &diskEngine{
		db:    db,
		opts:  opts,
		dir:   opts.Dir,
		cache: segment.NewPageCache(opts.PageCacheBytes, pageCacheShards),
		files: make(map[uint64]*segment.File),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	e.syncCond = sync.NewCond(&e.syncMu)
	e.pruneOn.Store(true)
	db.eng = e
	if err := e.recover(); err != nil {
		for _, f := range e.files {
			f.Close()
		}
		if e.wal != nil {
			e.wal.Close()
		}
		return nil, err
	}
	if !opts.DisableAutoCompact {
		e.wg.Add(1)
		go e.compactLoop()
	}
	return db, nil
}

// Close stops the compactor, flushes and fsyncs the WAL, and closes all
// files. For a memory database it is a no-op.
func (db *Database) Close() error {
	if db.eng == nil {
		return nil
	}
	return db.eng.close()
}

func (e *diskEngine) close() error {
	e.closeOnce.Do(func() {
		close(e.stop)
		e.wg.Wait()
		e.db.mu.Lock()
		if e.wal != nil {
			e.closeErr = e.wal.Close()
		}
		for id, f := range e.files {
			f.Close()
			delete(e.files, id)
		}
		e.db.mu.Unlock()
	})
	return e.closeErr
}

// File naming: a single monotonic id sequence covers WALs and segments;
// CURRENT names the live WAL and is the recovery root.

func walName(id uint64) string { return fmt.Sprintf("wal-%010d.log", id) }
func segName(id uint64) string { return fmt.Sprintf("seg-%010d.seg", id) }

func parseFileID(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	id, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

func (e *diskEngine) walPath(id uint64) string { return filepath.Join(e.dir, walName(id)) }
func (e *diskEngine) segPath(id uint64) string { return filepath.Join(e.dir, segName(id)) }
func (e *diskEngine) nextFileID() uint64       { return e.fileSeq.Add(1) }

// writeCurrent atomically points the recovery root at a new WAL.
func writeCurrent(dir, name string) error {
	tmp := filepath.Join(dir, "CURRENT.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(name + "\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "CURRENT")); err != nil {
		return err
	}
	return fsyncDir(dir)
}

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// ---------------------------------------------------------------------------
// Commit path

// logRecord appends one record to the WAL; callers hold the database
// write lock. Append failures latch into syncErr so every subsequent
// commit fails loudly instead of silently losing durability.
func (e *diskEngine) logRecord(rec []byte) {
	if e.replaying {
		return
	}
	if err := e.wal.Append(rec); err != nil {
		e.syncMu.Lock()
		if e.syncErr == nil {
			e.syncErr = err
		}
		e.syncMu.Unlock()
		return
	}
	e.appended.Add(1)
	if e.wal.Size() > checkpointBytes {
		e.kick()
	}
}

func (e *diskEngine) logInsert(t *Table, rows []Row) {
	if len(rows) == 0 {
		return
	}
	e.logRecord(encInsert(t.Name, rows))
	if len(t.Rows) >= e.opts.SealRows {
		e.kick()
	}
}

// commitDurable is called after the statement lock is released: it blocks
// until everything this commit appended is fsynced (riding along with any
// later appends the leader happens to cover).
func (db *Database) commitDurable(err error) error {
	e := db.eng
	if e == nil {
		return err
	}
	if serr := e.waitDurable(e.appended.Load()); serr != nil && err == nil {
		err = serr
	}
	return err
}

// waitDurable blocks until the WAL is durable through sequence seq.
//
// Group commit: the first arrival becomes the leader — it flushes the
// buffer, releases every lock, and fsyncs while later commits buffer
// appends behind it and wait on the condvar. One fsync acknowledges the
// leader and every follower whose append preceded the flush.
func (e *diskEngine) waitDurable(seq uint64) error {
	if seq == 0 || e.noSync.Load() {
		return nil
	}
	if e.opts.DisableGroupCommit {
		return e.syncSerialized(seq)
	}
	for {
		e.syncMu.Lock()
		for {
			if e.syncErr != nil {
				err := e.syncErr
				e.syncMu.Unlock()
				return err
			}
			if e.durable >= seq {
				e.syncMu.Unlock()
				return nil
			}
			if !e.syncing {
				break
			}
			e.syncCond.Wait()
		}
		e.syncing = true
		w := e.wal
		e.syncMu.Unlock()

		// Capture the append horizon before flushing: everything counted
		// here is in the buffer by the time Flush returns, so one fsync
		// makes it all durable.
		target := e.appended.Load()
		err := w.Flush()
		if err == nil {
			err = w.Sync()
		}

		e.syncMu.Lock()
		e.syncing = false
		if e.wal != w {
			// A checkpoint swapped the WAL mid-fsync; the checkpoint made
			// everything durable itself, so this result (even an error on
			// the retired file) is irrelevant.
			err = nil
		} else if err != nil {
			e.syncErr = err
		} else if target > e.durable {
			e.durable = target
		}
		e.syncCond.Broadcast()
		e.syncMu.Unlock()
		if err != nil {
			return err
		}
	}
}

// syncSerialized is the no-group-commit baseline: every committer takes
// the sync mutex and issues its own fsync, even when an earlier
// committer's fsync already covered this commit's appends — skipping in
// that case would be group commit by another name, and the option exists
// precisely to measure what batching buys.
func (e *diskEngine) syncSerialized(seq uint64) error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	if e.syncErr != nil {
		return e.syncErr
	}
	w := e.wal
	target := e.appended.Load()
	if err := w.Flush(); err != nil {
		e.syncErr = err
		return err
	}
	if err := w.Sync(); err != nil {
		e.syncErr = err
		return err
	}
	if target > e.durable {
		e.durable = target
	}
	e.syncCond.Broadcast()
	return nil
}

// BulkLoad runs fn with per-commit fsyncs suspended, then seals every
// full block and checkpoints, making the loaded data durable with a
// handful of fsyncs instead of one per insert batch. Durability of
// commits made while fn runs (from any goroutine) is deferred to the
// final checkpoint. On a memory database fn just runs.
func (db *Database) BulkLoad(fn func() error) error {
	if db.eng == nil {
		return fn()
	}
	return db.eng.bulkLoad(fn)
}

func (e *diskEngine) bulkLoad(fn func() error) error {
	e.noSync.Store(true)
	err := fn()
	e.noSync.Store(false)
	if err != nil {
		if serr := e.waitDurable(e.appended.Load()); serr != nil {
			return serr
		}
		return err
	}
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	for _, name := range e.db.TableNames() {
		if err := e.sealTable(name, vecBlockSize); err != nil {
			return err
		}
	}
	return e.checkpoint()
}

// ---------------------------------------------------------------------------
// Block reads

// blockRows returns the decoded rows of one sealed block, consulting the
// page cache first. The hit path does not allocate.
func (e *diskEngine) blockRows(ref *blockRef) ([]Row, error) {
	key := segment.PageKey{File: ref.fileID, Block: uint32(ref.idx)}
	if v, ok := e.cache.Get(key); ok {
		return v.(*decodedBlock).rows, nil
	}
	payload, err := ref.file.ReadBlock(ref.idx)
	if err != nil {
		return nil, err
	}
	rows, memBytes, err := decodeBlock(payload)
	if err != nil {
		return nil, err
	}
	e.cache.Put(key, &decodedBlock{rows: rows}, memBytes)
	return rows, nil
}

// SetZoneMapPruning toggles zone-map block skipping at runtime (the
// pruning ablation). No-op on a memory database.
func (db *Database) SetZoneMapPruning(on bool) {
	if db.eng != nil {
		db.eng.pruneOn.Store(on)
	}
}

// ZoneMapPruning reports whether zone-map block skipping is enabled.
func (db *Database) ZoneMapPruning() bool {
	return db.eng != nil && db.eng.pruneOn.Load()
}

// ---------------------------------------------------------------------------
// Compaction: seal, merge, checkpoint

func (e *diskEngine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

func (e *diskEngine) compactLoop() {
	defer e.wg.Done()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-e.wake:
		case <-tick.C:
		}
		e.sweep()
	}
}

func (e *diskEngine) sweep() {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	for _, name := range e.db.TableNames() {
		e.sealTable(name, e.opts.SealRows) // background pass: errors retried next sweep
		e.mergeTable(name)
	}
	if e.wal.Size() > checkpointBytes {
		e.checkpoint()
	}
}

// Seal synchronously seals every full vecBlockSize run of every table's
// tail into segment files — the deterministic test/bench hook.
func (db *Database) Seal() error {
	if db.eng == nil {
		return nil
	}
	e := db.eng
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	for _, name := range e.db.TableNames() {
		if err := e.sealTable(name, vecBlockSize); err != nil {
			return err
		}
	}
	return nil
}

// Compact synchronously runs one full compaction sweep — seal every full
// tail run, merge small segment runs, checkpoint if the WAL outgrew its
// threshold — the deterministic equivalent of one background-compactor
// pass. No-op on a memory database.
func (db *Database) Compact() error {
	if db.eng == nil {
		return nil
	}
	e := db.eng
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	for _, name := range e.db.TableNames() {
		if err := e.sealTable(name, vecBlockSize); err != nil {
			return err
		}
		if err := e.mergeTable(name); err != nil {
			return err
		}
	}
	if e.wal.Size() > checkpointBytes {
		return e.checkpoint()
	}
	return nil
}

// Checkpoint synchronously rolls the WAL over into a fresh checkpointed
// log and deletes retired files. No-op on a memory database.
func (db *Database) Checkpoint() error {
	if db.eng == nil {
		return nil
	}
	e := db.eng
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	return e.checkpoint()
}

// sealTable encodes the table's oldest full blocks into a new segment
// file and flips them from tail to sealed. Caller holds compactMu.
//
// The encode runs under the database read lock (in-place UPDATE mutations
// need the write lock, so rows cannot change beneath the encoder); the
// fsync-and-rename runs with no lock held; the flip revalidates under the
// write lock that no rewrite invalidated the snapshot — inserts are fine
// (append-only never invalidates a prefix), so only rewriteGen, identity,
// and sealedRows are checked.
func (e *diskEngine) sealTable(name string, minRows int) error {
	e.db.mu.RLock()
	t := e.db.tables[name]
	var k int
	var gen uint64
	var base int
	if t != nil {
		k = (len(t.Rows) >> vecBlockShift) << vecBlockShift
		gen, base = t.rewriteGen, t.sealedRows
	}
	e.db.mu.RUnlock()
	if t == nil || k == 0 || k < minRows {
		return nil
	}

	id := e.nextFileID()
	path := e.segPath(id)
	w, err := segment.NewWriter(path)
	if err != nil {
		return err
	}

	e.db.mu.RLock()
	if e.db.tables[name] != t || t.rewriteGen != gen || t.sealedRows != base || len(t.Rows) < k {
		e.db.mu.RUnlock()
		w.Abort()
		return nil
	}
	ncols := len(t.Columns)
	nblocks := k >> vecBlockShift
	zms := make([][]zoneEntry, nblocks)
	for b := 0; b < nblocks && err == nil; b++ {
		var payload []byte
		payload, zms[b] = encodeBlock(t.Rows[b<<vecBlockShift:(b+1)<<vecBlockShift], ncols)
		_, err = w.Append(payload, encodeZoneMap(zms[b]))
	}
	e.db.mu.RUnlock()
	if err != nil {
		w.Abort()
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	f, err := segment.Open(path)
	if err != nil {
		os.Remove(path)
		return err
	}

	e.db.mu.Lock()
	if e.db.tables[name] != t || t.rewriteGen != gen || t.sealedRows != base || len(t.Rows) < k {
		e.db.mu.Unlock()
		f.Close()
		os.Remove(path)
		return nil
	}
	for b := 0; b < nblocks; b++ {
		t.blocks = append(t.blocks, blockRef{file: f, fileID: id, idx: b, zm: zms[b]})
	}
	t.sealedRows += k
	// Fresh tail allocation so the sealed prefix's backing array is
	// released instead of pinned by the re-sliced tail.
	t.Rows = append([]Row(nil), t.Rows[k:]...)
	e.files[id] = f
	e.logRecord(encSeal(name, id, k))
	e.seals.Add(1)
	e.db.mu.Unlock()
	return nil
}

// mergeTable folds all of a table's sealed blocks into one segment file
// once they span at least MergeSegments files, preserving block (and so
// row) order — emission order is part of the engine's differential
// contract with the in-memory oracle. Block payloads are copied verbatim;
// zone maps carry over unchanged. Caller holds compactMu.
func (e *diskEngine) mergeTable(name string) error {
	e.db.mu.RLock()
	t := e.db.tables[name]
	var refs []blockRef
	var gen uint64
	if t != nil {
		distinct := make(map[uint64]struct{})
		for i := range t.blocks {
			distinct[t.blocks[i].fileID] = struct{}{}
		}
		if len(distinct) >= e.opts.MergeSegments {
			refs = append([]blockRef(nil), t.blocks...)
			gen = t.rewriteGen
		}
	}
	e.db.mu.RUnlock()
	if len(refs) == 0 {
		return nil
	}

	id := e.nextFileID()
	path := e.segPath(id)
	w, err := segment.NewWriter(path)
	if err != nil {
		return err
	}
	for i := range refs {
		// Off-lock read: if a concurrent rewrite retires a source file
		// mid-copy the read fails and the merge aborts; the flip's
		// rewriteGen check would have rejected it anyway.
		payload, err := refs[i].file.ReadBlock(refs[i].idx)
		if err != nil {
			w.Abort()
			return err
		}
		if _, err := w.Append(payload, encodeZoneMap(refs[i].zm)); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Finish(); err != nil {
		return err
	}
	f, err := segment.Open(path)
	if err != nil {
		os.Remove(path)
		return err
	}

	e.db.mu.Lock()
	if e.db.tables[name] != t || t.rewriteGen != gen || len(t.blocks) < len(refs) {
		e.db.mu.Unlock()
		f.Close()
		os.Remove(path)
		return nil
	}
	old := make(map[uint64]struct{})
	for i := range refs {
		old[refs[i].fileID] = struct{}{}
		t.blocks[i] = blockRef{file: f, fileID: id, idx: i, zm: refs[i].zm}
	}
	still := make(map[uint64]struct{})
	for i := range t.blocks {
		still[t.blocks[i].fileID] = struct{}{}
	}
	for oldID := range old {
		if _, ok := still[oldID]; !ok {
			e.retireFileLocked(oldID)
		}
	}
	e.files[id] = f
	e.logRecord(encMerge(name, id, len(refs)))
	e.merges.Add(1)
	e.db.mu.Unlock()
	return nil
}

// retireFileLocked drops a segment file from the live set: evict its
// cached blocks and close the handle. The bytes stay on disk until the
// next checkpoint — the current WAL's replay still references them.
// Caller holds the database write lock.
func (e *diskEngine) retireFileLocked(id uint64) {
	e.cache.DropFile(id)
	if f := e.files[id]; f != nil {
		f.Close()
		delete(e.files, id)
	}
}

// checkpoint writes the full database state (schema + segment refs + 'I'
// records for table tails) into a fresh WAL, atomically repoints CURRENT
// at it, and deletes the old WAL plus any segment file the new state no
// longer references. Caller holds compactMu.
func (e *diskEngine) checkpoint() error {
	newID := e.nextFileID()
	path := e.walPath(newID)

	e.db.mu.Lock()
	w, err := segment.CreateWAL(path)
	if err != nil {
		e.db.mu.Unlock()
		return err
	}
	fail := func(err error) error {
		e.db.mu.Unlock()
		w.Close()
		os.Remove(path)
		return err
	}
	if err := w.Append(encCheckpoint(e.db)); err != nil {
		return fail(err)
	}
	names := make([]string, 0, len(e.db.tables))
	for n := range e.db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.db.tables[n]
		if len(t.Rows) == 0 {
			continue
		}
		if err := w.Append(encInsert(n, t.Rows)); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := w.Sync(); err != nil {
		return fail(err)
	}
	if err := writeCurrent(e.dir, walName(newID)); err != nil {
		return fail(err)
	}

	oldW, oldID := e.wal, e.walID
	e.syncMu.Lock()
	e.wal = w
	e.walID = newID
	// Everything appended so far is captured by the checkpoint, so it is
	// durable regardless of what the old WAL had fsynced.
	e.durable = e.appended.Load()
	e.fsyncsPrior += oldW.Fsyncs()
	e.syncCond.Broadcast()
	e.syncMu.Unlock()

	referenced := make(map[uint64]struct{})
	for _, t := range e.db.tables {
		for i := range t.blocks {
			referenced[t.blocks[i].fileID] = struct{}{}
		}
	}
	e.checkpoints.Add(1)
	e.db.mu.Unlock()

	// An in-flight group-commit leader may still be fsyncing oldW; Close
	// and concurrent fsync are safe on *os.File, and the leader discards
	// results for a retired WAL.
	oldW.Close()
	os.Remove(e.walPath(oldID))
	e.removeUnreferencedSegs(referenced)
	return nil
}

// removeUnreferencedSegs deletes segment files the given reference set no
// longer names. Safe to run without locks: new segment files are only
// created under compactMu (held by our caller), and concurrent mutations
// can only retire references, never resurrect them.
func (e *diskEngine) removeUnreferencedSegs(referenced map[uint64]struct{}) {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		id, ok := parseFileID(ent.Name(), "seg-", ".seg")
		if !ok {
			continue
		}
		if _, live := referenced[id]; !live {
			os.Remove(filepath.Join(e.dir, ent.Name()))
		}
	}
}

// ---------------------------------------------------------------------------
// Recovery

type idxDecl struct {
	table, column string
	ordered       bool
}

// recover rebuilds the database from CURRENT's WAL: replay the committed
// prefix, truncate the torn tail, rebuild indexes once at the end, and
// delete orphan files from interrupted compactions.
func (e *diskEngine) recover() error {
	maxID := uint64(0)
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if id, ok := parseFileID(ent.Name(), "wal-", ".log"); ok && id > maxID {
			maxID = id
		}
		if id, ok := parseFileID(ent.Name(), "seg-", ".seg"); ok && id > maxID {
			maxID = id
		}
	}
	e.fileSeq.Store(maxID)

	curData, err := os.ReadFile(filepath.Join(e.dir, "CURRENT"))
	if errors.Is(err, fs.ErrNotExist) {
		// Fresh directory (or a crash before the very first CURRENT write:
		// any stray files are orphans).
		e.walID = e.nextFileID()
		w, err := segment.CreateWAL(e.walPath(e.walID))
		if err != nil {
			return err
		}
		if err := writeCurrent(e.dir, walName(e.walID)); err != nil {
			w.Close()
			return err
		}
		e.wal = w
		e.cleanupOrphans()
		return nil
	}
	if err != nil {
		return err
	}
	walFile := strings.TrimSpace(string(curData))
	walID, ok := parseFileID(walFile, "wal-", ".log")
	if !ok {
		return errf("exec", "minidb: corrupt CURRENT %q", walFile)
	}
	records, validLen, err := segment.ReadWAL(filepath.Join(e.dir, walFile))
	if err != nil {
		return fmt.Errorf("minidb: read wal: %w", err)
	}

	e.replaying = true
	var decls []idxDecl
	for i, rec := range records {
		d, err := e.applyRecord(rec)
		if err != nil {
			e.replaying = false
			return fmt.Errorf("minidb: wal replay record %d: %w", i, err)
		}
		decls = append(decls, d...)
	}
	err = e.buildIndexes(decls)
	e.replaying = false
	if err != nil {
		return err
	}

	w, err := segment.OpenWALAppend(filepath.Join(e.dir, walFile), validLen)
	if err != nil {
		return err
	}
	e.wal = w
	e.walID = walID
	e.cleanupOrphans()
	return nil
}

// buildIndexes builds the index declarations replay collected. Indexes
// are built once over the final replayed state instead of incrementally
// per record — a replayed rewrite would otherwise trigger full rebuilds
// mid-stream. A declaration on a table that no longer exists is skipped.
func (e *diskEngine) buildIndexes(decls []idxDecl) error {
	for _, d := range decls {
		t := e.db.tables[d.table]
		if t == nil {
			continue
		}
		var err error
		if d.ordered {
			_, err = t.addOrderedIndex(d.column)
		} else {
			_, err = t.addIndex(d.column)
		}
		if err != nil {
			return fmt.Errorf("minidb: wal replay index %s.%s: %w", d.table, d.column, err)
		}
	}
	return nil
}

// applyRecord replays one WAL record against the in-memory state,
// returning any index declarations to build after replay finishes.
func (e *diskEngine) applyRecord(rec []byte) ([]idxDecl, error) {
	r := &rbuf{b: rec}
	kind := r.u8()
	switch kind {
	case recCreateTable:
		name := r.str()
		n := int(r.u32())
		if r.err != nil || n < 0 || n > len(rec) {
			return nil, errf("exec", "corrupt create-table record")
		}
		cols := make([]Column, n)
		for i := range cols {
			cols[i] = Column{Name: r.str(), Type: ColumnType(r.u8())}
		}
		if r.err != nil {
			return nil, r.err
		}
		if _, exists := e.db.tables[name]; exists {
			return nil, errf("exec", "replayed CREATE of existing table %q", name)
		}
		t := newTable(name, cols)
		t.eng = e
		e.db.tables[name] = t
		return nil, nil

	case recDropTable:
		name := r.str()
		if r.err != nil {
			return nil, r.err
		}
		delete(e.db.tables, name)
		return nil, nil

	case recCreateIndex:
		table, column := r.str(), r.str()
		ordered := r.u8() == 1
		if r.err != nil {
			return nil, r.err
		}
		return []idxDecl{{table: table, column: column, ordered: ordered}}, nil

	case recInsert, recRewrite:
		name := r.str()
		rows, err := decodeRecRows(r)
		if err != nil {
			return nil, err
		}
		t := e.db.tables[name]
		if t == nil {
			return nil, errf("exec", "replayed rows for missing table %q", name)
		}
		for _, row := range rows {
			if len(row) != len(t.Columns) {
				return nil, errf("exec", "replayed row width %d for table %q (%d columns)",
					len(row), name, len(t.Columns))
			}
		}
		if kind == recInsert {
			t.Rows = append(t.Rows, rows...)
		} else {
			t.Rows = rows
			t.sealedRows = 0
			t.blocks = nil // files stay for the final orphan sweep
		}
		return nil, nil

	case recSeal:
		name := r.str()
		id := r.u64()
		k := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		t := e.db.tables[name]
		if t == nil {
			return nil, errf("exec", "replayed seal for missing table %q", name)
		}
		if k <= 0 || k&vecBlockMask != 0 || k > len(t.Rows) {
			return nil, errf("exec", "replayed seal of %d rows, tail %d", k, len(t.Rows))
		}
		f, err := e.openSeg(id)
		if err != nil {
			return nil, err
		}
		nblocks := k >> vecBlockShift
		if f.NumBlocks() != nblocks {
			return nil, errf("exec", "segment %d has %d blocks, seal wants %d", id, f.NumBlocks(), nblocks)
		}
		for b := 0; b < nblocks; b++ {
			zm, err := decodeZoneMap(f.Blocks[b].Meta)
			if err != nil {
				return nil, err
			}
			t.blocks = append(t.blocks, blockRef{file: f, fileID: id, idx: b, zm: zm})
		}
		t.sealedRows += k
		t.Rows = append([]Row(nil), t.Rows[k:]...)
		return nil, nil

	case recMerge:
		name := r.str()
		id := r.u64()
		n := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		t := e.db.tables[name]
		if t == nil {
			return nil, errf("exec", "replayed merge for missing table %q", name)
		}
		if n <= 0 || n > len(t.blocks) {
			return nil, errf("exec", "replayed merge of %d blocks, table has %d", n, len(t.blocks))
		}
		f, err := e.openSeg(id)
		if err != nil {
			return nil, err
		}
		if f.NumBlocks() < n {
			return nil, errf("exec", "segment %d has %d blocks, merge wants %d", id, f.NumBlocks(), n)
		}
		for b := 0; b < n; b++ {
			zm, err := decodeZoneMap(f.Blocks[b].Meta)
			if err != nil {
				return nil, err
			}
			t.blocks[b] = blockRef{file: f, fileID: id, idx: b, zm: zm}
		}
		return nil, nil

	case recCheckpoint:
		return e.applyCheckpoint(r)
	}
	return nil, errf("exec", "unknown wal record kind %q", kind)
}

func decodeRecRows(r *rbuf) ([]Row, error) {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.b) {
		return nil, errf("exec", "corrupt row-batch record")
	}
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, r.rowVals())
	}
	if r.err != nil {
		return nil, r.err
	}
	return rows, nil
}

func (e *diskEngine) applyCheckpoint(r *rbuf) ([]idxDecl, error) {
	if len(e.db.tables) != 0 {
		return nil, errf("exec", "checkpoint record is not first in its log")
	}
	var decls []idxDecl
	ntables := int(r.u32())
	if r.err != nil || ntables < 0 || ntables > len(r.b) {
		return nil, errf("exec", "corrupt checkpoint record")
	}
	for i := 0; i < ntables; i++ {
		name := r.str()
		ncols := int(r.u32())
		if r.err != nil || ncols <= 0 || ncols > len(r.b) {
			return nil, errf("exec", "corrupt checkpoint table %q", name)
		}
		cols := make([]Column, ncols)
		for c := range cols {
			cols[c] = Column{Name: r.str(), Type: ColumnType(r.u8())}
		}
		t := newTable(name, cols)
		t.eng = e
		nHash := int(r.u32())
		for h := 0; h < nHash && r.err == nil; h++ {
			decls = append(decls, idxDecl{table: name, column: r.str()})
		}
		nOrd := int(r.u32())
		for o := 0; o < nOrd && r.err == nil; o++ {
			decls = append(decls, idxDecl{table: name, column: r.str(), ordered: true})
		}
		sealed := int(r.u32())
		nblocks := int(r.u32())
		if r.err != nil || nblocks < 0 || sealed != nblocks<<vecBlockShift {
			return nil, errf("exec", "corrupt checkpoint geometry for table %q", name)
		}
		for b := 0; b < nblocks; b++ {
			id := r.u64()
			idx := int(r.u32())
			if r.err != nil {
				return nil, r.err
			}
			f, err := e.openSeg(id)
			if err != nil {
				return nil, err
			}
			if idx < 0 || idx >= f.NumBlocks() {
				return nil, errf("exec", "checkpoint block %d/%d out of range", id, idx)
			}
			zm, err := decodeZoneMap(f.Blocks[idx].Meta)
			if err != nil {
				return nil, err
			}
			t.blocks = append(t.blocks, blockRef{file: f, fileID: id, idx: idx, zm: zm})
		}
		t.sealedRows = sealed
		e.db.tables[name] = t
	}
	if r.err != nil {
		return nil, r.err
	}
	return decls, nil
}

func (e *diskEngine) openSeg(id uint64) (*segment.File, error) {
	if f := e.files[id]; f != nil {
		return f, nil
	}
	f, err := segment.Open(e.segPath(id))
	if err != nil {
		return nil, err
	}
	e.files[id] = f
	return f, nil
}

// cleanupOrphans deletes files a crash left behind: .tmp files from
// interrupted atomic writes, segment files no table references, and WALs
// other than CURRENT's. Runs single-threaded at the end of recovery.
func (e *diskEngine) cleanupOrphans() {
	referenced := make(map[uint64]struct{})
	for _, t := range e.db.tables {
		for i := range t.blocks {
			referenced[t.blocks[i].fileID] = struct{}{}
		}
	}
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		full := filepath.Join(e.dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(full)
		case strings.HasPrefix(name, "seg-"):
			id, ok := parseFileID(name, "seg-", ".seg")
			if !ok {
				continue
			}
			if _, live := referenced[id]; !live {
				if f := e.files[id]; f != nil {
					f.Close()
					delete(e.files, id)
				}
				os.Remove(full)
			}
		case strings.HasPrefix(name, "wal-"):
			if id, ok := parseFileID(name, "wal-", ".log"); !ok || id != e.walID {
				os.Remove(full)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Stats

// EngineStats snapshots the storage engine's counters.
func (db *Database) EngineStats() EngineStats {
	return db.Engine().Stats()
}

func (e *diskEngine) Stats() EngineStats {
	cs := e.cache.Snapshot()
	st := EngineStats{
		Engine:             "disk",
		Dir:                e.dir,
		PageCacheBudget:    e.opts.PageCacheBytes,
		PageCacheBytes:     cs.Bytes,
		PageCacheHits:      cs.Hits,
		PageCacheMisses:    cs.Misses,
		PageCacheEvictions: cs.Evictions,
		BlocksScanned:      e.blocksScanned.Load(),
		BlocksSkipped:      e.blocksSkipped.Load(),
		Commits:            int64(e.appended.Load()),
		Seals:              e.seals.Load(),
		Merges:             e.merges.Load(),
		Checkpoints:        e.checkpoints.Load(),
		ZoneMapPruning:     e.pruneOn.Load(),
		GroupCommit:        !e.opts.DisableGroupCommit,
	}
	e.db.mu.RLock()
	st.WALBytes = e.wal.Size()
	st.WALFsyncs = e.wal.Fsyncs()
	st.Segments = len(e.files)
	for _, t := range e.db.tables {
		st.SealedRows += t.sealedRows
		st.TailRows += len(t.Rows)
	}
	e.db.mu.RUnlock()
	e.syncMu.Lock()
	st.WALFsyncs += e.fsyncsPrior
	e.syncMu.Unlock()
	return st
}
