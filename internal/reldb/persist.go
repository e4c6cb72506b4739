package reldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Durable storage layout: <dir>/data.snap holds a full snapshot of the
// database; <dir>/data.wal holds logical redo records appended at each
// commit since the snapshot. Open loads the snapshot and replays the WAL.
// Checkpoint rewrites the snapshot and truncates the WAL.
//
// WAL records address rows by slot. Slot assignment is deterministic (the
// free list is LIFO and is persisted in the snapshot), so replaying the
// records against the snapshot they were logged on reproduces the state
// byte for byte.
//
// Each checkpoint advances a generation stamped into both files: the
// snapshot header, and a header at the start of the WAL naming the
// snapshot generation its records extend. A crash between renaming a new
// snapshot into place and resetting the WAL leaves a WAL older than the
// snapshot, whose records the snapshot already holds; Open ignores it
// instead of applying it twice. Files written before generations existed
// (version 1 snapshots, WALs without the header) are generation 0.

const (
	snapFile  = "data.snap"
	walFile   = "data.wal"
	snapMagic = 0x5044_4D46 // "PDMF"
	snapVer   = 2           // 1: no generation

	// walMagic opens a stamped WAL. Read as the length field of an
	// unstamped WAL's first batch it would declare exabytes, so the two
	// layouts cannot be confused.
	walMagic      = 0x4C41_5746_444D_5050 // "PPMDFWAL"
	walHeaderSize = 16                    // magic, generation
)

type walKind uint8

const (
	walInsert walKind = iota
	walUpdate
	walDelete
	walCreateTable
	walDropTable
	walAddColumn
	walDropColumn
	walCreateIndex
	walDropIndex
)

type walRecord struct {
	kind      walKind
	table     string
	slot      int
	row       Row
	schema    *Schema
	column    Column
	name      string
	ixColumns []string
	ixKind    IndexKind
	unique    bool
}

// Options configures a durable database.
type Options struct {
	// Sync forces an fsync after every commit. Off by default: PerfDMF's
	// workloads are bulk archival loads where a post-load Checkpoint is the
	// durability point.
	Sync bool
	// CheckpointEvery rewrites the snapshot after this many logged
	// operations. Zero disables automatic checkpoints.
	CheckpointEvery int
}

// Open opens (creating if needed) a durable database rooted at dir.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	db := NewMemory()
	db.dir = dir
	db.chkEach = opts.CheckpointEvery

	snapPath := filepath.Join(dir, snapFile)
	if f, err := os.Open(snapPath); err == nil {
		start := time.Now()
		err = db.loadSnapshot(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reldb: load snapshot %s: %w", snapPath, err)
		}
		mSnapshotLoadNS.Observe(int64(time.Since(start)))
		if fi, err := os.Stat(snapPath); err == nil {
			mSnapshotBytes.Set(fi.Size())
			// The snapshot's mtime is when the last checkpoint completed;
			// health probes measure checkpoint age from it across restarts.
			db.lastChk = fi.ModTime()
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	walPath := filepath.Join(dir, walFile)
	if f, err := os.OpenFile(walPath, os.O_RDWR, 0); err == nil {
		n, err2 := db.recoverWAL(f)
		f.Close()
		if err2 != nil {
			return nil, fmt.Errorf("reldb: replay wal %s: %w", walPath, err2)
		}
		db.walOps = n
		mWALReplayed.Add(int64(n))
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	w, err := openWAL(walPath, opts.Sync, db.gen)
	if err != nil {
		return nil, err
	}
	db.wal = w
	return db, nil
}

// Checkpoint writes a full snapshot and truncates the WAL. It is the
// durability point for bulk loads when Sync is off.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	if db.dir == "" {
		return nil
	}
	start := time.Now()
	tmp := filepath.Join(db.dir, snapFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := db.writeSnapshot(bw, db.gen+1); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	snapPath := filepath.Join(db.dir, snapFile)
	if err := os.Rename(tmp, snapPath); err != nil {
		return err
	}
	// The rename must be durable before the WAL it supersedes is reset: a
	// reset WAL next to the old snapshot would lose every record since it.
	if err := syncDir(db.dir); err != nil {
		return err
	}
	db.gen++
	db.walOps = 0
	if err := db.wal.reset(db.gen); err != nil {
		return err
	}
	mCheckpoints.Inc()
	mCheckpointNS.Observe(int64(time.Since(start)))
	db.lastChk = time.Now()
	if fi, err := os.Stat(snapPath); err == nil {
		mSnapshotBytes.Set(fi.Size())
	}
	return nil
}

// syncDir fsyncs a directory, making renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close flushes and closes the WAL. In-memory databases only mark
// themselves closed (visible to Health). The final fsync runs outside the
// lock: detaching db.wal under the mutex already fences out concurrent
// writers, so there is no reason to stall readers behind disk I/O.
func (db *DB) Close() error {
	db.mu.Lock()
	db.closed = true
	w := db.wal
	db.wal = nil
	db.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.close()
}

// --- binary encoding primitives ---

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func putValue(b *bytes.Buffer, v Value) {
	b.WriteByte(byte(v.T))
	switch v.T {
	case TNull:
	case TInt, TBool, TTime:
		putUvarint(b, uint64(v.I))
	case TFloat:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		b.Write(tmp[:])
	case TString, TBytes:
		putString(b, v.S)
	}
}

func putRow(b *bytes.Buffer, r Row) {
	putUvarint(b, uint64(len(r)))
	for _, v := range r {
		putValue(b, v)
	}
}

func putColumn(b *bytes.Buffer, c Column) {
	putString(b, c.Name)
	b.WriteByte(byte(c.Type))
	flags := byte(0)
	if c.NotNull {
		flags |= 1
	}
	if c.AutoIncrement {
		flags |= 2
	}
	b.WriteByte(flags)
	putValue(b, c.Default)
}

func putSchema(b *bytes.Buffer, s *Schema) {
	putString(b, s.Name)
	putString(b, s.PrimaryKey)
	putUvarint(b, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		putColumn(b, c)
	}
	putUvarint(b, uint64(len(s.ForeignKeys)))
	for _, fk := range s.ForeignKeys {
		putString(b, fk.Column)
		putString(b, fk.RefTable)
		putString(b, fk.RefColumn)
	}
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (d *reader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *reader) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
	}
	return b
}

func (d *reader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

func (d *reader) value() Value {
	t := Type(d.byte())
	switch t {
	case TNull:
		return Null
	case TInt, TBool, TTime:
		return Value{T: t, I: int64(d.uvarint())}
	case TFloat:
		var tmp [8]byte
		if _, err := io.ReadFull(d.r, tmp[:]); err != nil {
			d.err = err
			return Null
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])))
	case TString, TBytes:
		return Value{T: t, S: d.str()}
	}
	if d.err == nil {
		d.err = fmt.Errorf("reldb: bad value tag %d", t)
	}
	return Null
}

func (d *reader) row() Row {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	r := make(Row, n)
	for i := range r {
		r[i] = d.value()
	}
	return r
}

func (d *reader) column() Column {
	var c Column
	c.Name = d.str()
	c.Type = Type(d.byte())
	flags := d.byte()
	c.NotNull = flags&1 != 0
	c.AutoIncrement = flags&2 != 0
	c.Default = d.value()
	return c
}

func (d *reader) schema() *Schema {
	s := &Schema{}
	s.Name = d.str()
	s.PrimaryKey = d.str()
	ncols := d.uvarint()
	for i := uint64(0); i < ncols && d.err == nil; i++ {
		s.Columns = append(s.Columns, d.column())
	}
	nfk := d.uvarint()
	for i := uint64(0); i < nfk && d.err == nil; i++ {
		s.ForeignKeys = append(s.ForeignKeys, ForeignKey{
			Column: d.str(), RefTable: d.str(), RefColumn: d.str(),
		})
	}
	return s
}

// --- snapshot ---

// writeSnapshot writes the database as the snapshot of checkpoint
// generation gen.
func (db *DB) writeSnapshot(w *bufio.Writer, gen uint64) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVer)
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var b bytes.Buffer
	putUvarint(&b, uint64(len(db.tables)))
	// Stable order for reproducible snapshots.
	for _, name := range sortedTableKeys(db.tables) {
		t := db.tables[name]
		putSchema(&b, t.schema)
		putUvarint(&b, uint64(t.autoInc))
		putUvarint(&b, uint64(len(t.rows)))
		for _, row := range t.rows {
			if row == nil {
				b.WriteByte(0)
				continue
			}
			b.WriteByte(1)
			putRow(&b, row)
		}
		putUvarint(&b, uint64(len(t.free)))
		for _, s := range t.free {
			putUvarint(&b, uint64(s))
		}
		putUvarint(&b, uint64(len(t.indexes)))
		for _, key := range sortedIndexKeys(t.indexes) {
			ix := t.indexes[key]
			putString(&b, ix.Name)
			putUvarint(&b, uint64(len(ix.Columns)))
			for _, c := range ix.Columns {
				putString(&b, c)
			}
			b.WriteByte(byte(ix.Kind))
			if ix.Unique {
				b.WriteByte(1)
			} else {
				b.WriteByte(0)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func sortedTableKeys(m map[string]*Table) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedIndexKeys(m map[string]*Index) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (db *DB) loadSnapshot(r *bufio.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != snapMagic {
		return fmt.Errorf("bad magic")
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:]); v {
	case 1:
	case snapVer:
		var gen [8]byte
		if _, err := io.ReadFull(r, gen[:]); err != nil {
			return err
		}
		db.gen = binary.LittleEndian.Uint64(gen[:])
	default:
		return fmt.Errorf("unsupported snapshot version %d", v)
	}
	d := &reader{r: r}
	ntab := d.uvarint()
	for i := uint64(0); i < ntab && d.err == nil; i++ {
		schema := d.schema()
		if d.err != nil {
			break
		}
		t := newTable(schema)
		t.autoInc = int64(d.uvarint())
		nslots := d.uvarint()
		t.rows = make([]Row, 0, nslots)
		for s := uint64(0); s < nslots && d.err == nil; s++ {
			if d.byte() == 0 {
				t.rows = append(t.rows, nil)
				continue
			}
			row := d.row()
			t.rows = append(t.rows, row)
			t.live++
		}
		nfree := d.uvarint()
		for s := uint64(0); s < nfree && d.err == nil; s++ {
			t.free = append(t.free, int(d.uvarint()))
		}
		if t.pk != nil {
			if err := t.pk.rebuild(t.rows); err != nil {
				return err
			}
		}
		nix := d.uvarint()
		for s := uint64(0); s < nix && d.err == nil; s++ {
			name := d.str()
			ncols := int(d.uvarint())
			columns := make([]string, ncols)
			for i := range columns {
				columns[i] = d.str()
			}
			kind := IndexKind(d.byte())
			unique := d.byte() == 1
			cols := make([]int, len(columns))
			for i, column := range columns {
				pos := schema.ColumnIndex(column)
				if pos < 0 {
					return fmt.Errorf("snapshot index %s on unknown column %s", name, column)
				}
				cols[i] = pos
			}
			ix, err := newIndex(name, schema.Name, columns, cols, kind, unique)
			if err != nil {
				return err
			}
			if err := ix.rebuild(t.rows); err != nil {
				return err
			}
			t.indexes[strings.ToLower(name)] = ix
		}
		db.tables[strings.ToLower(schema.Name)] = t
	}
	return d.err
}

// --- WAL ---

type walWriter struct {
	f    *os.File
	sync bool
	// unsynced counts relaxed appends since the last fsync. Relaxed
	// commits batch their fsyncs: the file is synced every
	// relaxedFsyncEvery relaxed appends, at the next synchronous append,
	// and at close/truncate. The walWriter is only touched under the
	// database write lock, so the counter needs no synchronisation.
	unsynced int
	// gen is the checkpoint generation the log extends; an empty log gets
	// the header naming it with its first batch.
	gen   uint64
	empty bool
}

// relaxedFsyncEvery bounds how many relaxed commit batches may ride on one
// deferred fsync.
const relaxedFsyncEvery = 32

// openWAL opens the WAL for appending; an empty one is stamped as
// extending checkpoint generation gen by its first append.
func openWAL(path string, sync bool, gen uint64) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, sync: sync, gen: gen, empty: fi.Size() == 0}, nil
}

// walBufPool recycles the encode buffer across commit batches. Bulk loads
// commit thousands of batches; without the pool each one allocates (and
// grows) a fresh bytes.Buffer.
var walBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledWALBuf caps what goes back in the pool: an occasional huge batch
// should not pin a multi-megabyte buffer for the process lifetime.
const maxPooledWALBuf = 1 << 20

// append writes one commit batch: length, crc32, payload. Relaxed appends
// defer the per-commit fsync (when sync mode is on) and batch it with later
// commits; a synchronous append flushes everything outstanding.
func (w *walWriter) append(recs []walRecord, relaxed bool) error {
	start := time.Now()
	b := walBufPool.Get().(*bytes.Buffer)
	b.Reset()
	defer func() {
		if b.Cap() <= maxPooledWALBuf {
			walBufPool.Put(b)
		}
	}()
	putUvarint(b, uint64(len(recs)))
	for i := range recs {
		encodeWALRecord(b, &recs[i])
	}
	payload := b.Bytes()
	var hdr [walHeaderSize + 12]byte // log header, then batch header
	binary.LittleEndian.PutUint64(hdr[0:], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], w.gen)
	binary.LittleEndian.PutUint64(hdr[walHeaderSize:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[walHeaderSize+8:], crc32.ChecksumIEEE(payload))
	head := hdr[walHeaderSize:]
	if w.empty {
		head = hdr[:]
	}
	if _, err := w.f.Write(head); err != nil {
		return err
	}
	w.empty = false
	if _, err := w.f.Write(payload); err != nil {
		return err
	}
	mWALAppends.Inc()
	mWALRecords.Add(int64(len(recs)))
	mWALBytes.Add(int64(len(head) + len(payload)))
	if relaxed {
		mWALRelaxedAppends.Inc()
	}
	if w.sync {
		if relaxed {
			w.unsynced++
			if w.unsynced < relaxedFsyncEvery {
				mWALAppendNS.Observe(int64(time.Since(start)))
				return nil
			}
		}
		fsyncStart := time.Now()
		err := w.f.Sync()
		if w.unsynced > 0 {
			mWALRelaxedFsyncBatches.Inc()
			w.unsynced = 0
		}
		mWALFsyncNS.Observe(int64(time.Since(fsyncStart)))
		mWALAppendNS.Observe(int64(time.Since(start)))
		return err
	}
	mWALAppendNS.Observe(int64(time.Since(start)))
	return nil
}

// probe reports whether the WAL file descriptor is still usable (fstat, no
// data written) — the health check's "can we still commit" signal.
func (w *walWriter) probe() error {
	_, err := w.f.Stat()
	return err
}

// reset empties the WAL, to extend checkpoint generation gen.
func (w *walWriter) reset(gen uint64) error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.unsynced = 0 // deferred relaxed fsyncs die with the truncated log
	w.gen, w.empty = gen, true
	_, err := w.f.Seek(0, io.SeekStart)
	return err
}

func (w *walWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func encodeWALRecord(b *bytes.Buffer, r *walRecord) {
	b.WriteByte(byte(r.kind))
	switch r.kind {
	case walInsert:
		putString(b, r.table)
		putRow(b, r.row)
	case walUpdate:
		putString(b, r.table)
		putUvarint(b, uint64(r.slot))
		putRow(b, r.row)
	case walDelete:
		putString(b, r.table)
		putUvarint(b, uint64(r.slot))
	case walCreateTable:
		putSchema(b, r.schema)
	case walDropTable:
		putString(b, r.table)
	case walAddColumn:
		putString(b, r.table)
		putColumn(b, r.column)
	case walDropColumn:
		putString(b, r.table)
		putString(b, r.name)
	case walCreateIndex:
		putString(b, r.table)
		putString(b, r.name)
		putUvarint(b, uint64(len(r.ixColumns)))
		for _, c := range r.ixColumns {
			putString(b, c)
		}
		b.WriteByte(byte(r.ixKind))
		if r.unique {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	case walDropIndex:
		putString(b, r.table)
		putString(b, r.name)
	}
}

// recoverWAL replays the log in f and truncates a torn tail away, syncing
// the truncation, so the next commit appends right after the last complete
// batch instead of after bytes a later replay would misread as a batch. A
// log older than the snapshot (a crash inside checkpoint), or one whose
// header is torn, holds nothing the snapshot lacks: it is emptied
// unreplayed, to be stamped afresh by its next append. A log newer than
// the snapshot means the snapshot it extends is missing, and fails.
func (db *DB) recoverWAL(f *os.File) (int, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	gen, good, torn := uint64(0), int64(0), false // an unstamped log extends generation 0
	if hdr, _ := br.Peek(walHeaderSize); len(hdr) >= 8 && binary.LittleEndian.Uint64(hdr) == walMagic {
		torn = len(hdr) < walHeaderSize
		if !torn {
			gen, good = binary.LittleEndian.Uint64(hdr[8:]), walHeaderSize
			br.Discard(walHeaderSize) //nolint:errcheck // peeked above
		}
	}
	if gen > db.gen {
		return 0, fmt.Errorf("wal extends checkpoint generation %d, newer than the snapshot's %d", gen, db.gen)
	}
	var ops int
	if torn || gen < db.gen {
		good = 0
	} else if ops, good, err = db.replayWAL(br, good, fi.Size()); err != nil || good == fi.Size() {
		return ops, err
	}
	if err := f.Truncate(good); err != nil {
		return ops, err
	}
	return ops, f.Sync()
}

// replayWAL applies the logged batches that br reads from offset start of
// a log of size bytes to the in-memory state, stopping cleanly at a torn
// final batch (the expected crash shape): a short header, a header
// declaring more bytes than remain, or a short payload. It returns the
// number of operations applied and the offset just past the last complete
// batch. A complete batch whose checksum does not match is corruption, not
// a torn tail, and fails.
func (db *DB) replayWAL(br *bufio.Reader, start, size int64) (ops int, good int64, err error) {
	good = start
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return ops, good, nil // clean end or torn header
			}
			return ops, good, err
		}
		n := binary.LittleEndian.Uint64(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[8:])
		if n > uint64(size-good-int64(len(hdr))) {
			return ops, good, nil // torn batch: its bytes never all landed
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return ops, good, nil // torn batch
			}
			return ops, good, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return ops, good, fmt.Errorf("wal batch checksum mismatch")
		}
		d := &reader{r: bufio.NewReader(bytes.NewReader(payload))}
		nrec := d.uvarint()
		for i := uint64(0); i < nrec; i++ {
			if err := db.applyWALRecord(d); err != nil {
				return ops, good, err
			}
			if d.err != nil {
				return ops, good, d.err
			}
			ops++
		}
		good += int64(len(hdr)) + int64(n)
	}
}

func (db *DB) applyWALRecord(d *reader) error {
	kind := walKind(d.byte())
	get := func(name string) (*Table, error) {
		t := db.tables[strings.ToLower(name)]
		if t == nil {
			return nil, fmt.Errorf("wal references missing table %s", name)
		}
		return t, nil
	}
	switch kind {
	case walInsert:
		name := d.str()
		row := d.row()
		t, err := get(name)
		if err != nil {
			return err
		}
		norm, err := t.normalize(row)
		if err != nil {
			return err
		}
		_, err = t.insert(norm)
		return err
	case walUpdate:
		name := d.str()
		slot := int(d.uvarint())
		row := d.row()
		t, err := get(name)
		if err != nil {
			return err
		}
		norm, err := t.normalize(row)
		if err != nil {
			return err
		}
		_, err = t.updateSlot(slot, norm)
		return err
	case walDelete:
		name := d.str()
		slot := int(d.uvarint())
		t, err := get(name)
		if err != nil {
			return err
		}
		_, err = t.deleteSlot(slot)
		return err
	case walCreateTable:
		schema := d.schema()
		db.tables[strings.ToLower(schema.Name)] = newTable(schema)
		return nil
	case walDropTable:
		name := d.str()
		delete(db.tables, strings.ToLower(name))
		return nil
	case walAddColumn:
		name := d.str()
		col := d.column()
		t, err := get(name)
		if err != nil {
			return err
		}
		return t.addColumn(col)
	case walDropColumn:
		name := d.str()
		column := d.str()
		t, err := get(name)
		if err != nil {
			return err
		}
		return t.dropColumn(column)
	case walCreateIndex:
		name := d.str()
		ixName := d.str()
		ncols := int(d.uvarint())
		columns := make([]string, ncols)
		for i := range columns {
			columns[i] = d.str()
		}
		ixKind := IndexKind(d.byte())
		unique := d.byte() == 1
		t, err := get(name)
		if err != nil {
			return err
		}
		cols := make([]int, len(columns))
		for i, column := range columns {
			pos := t.schema.ColumnIndex(column)
			if pos < 0 {
				return fmt.Errorf("wal index %s on unknown column %s", ixName, column)
			}
			cols[i] = pos
		}
		ix, err := newIndex(ixName, t.schema.Name, columns, cols, ixKind, unique)
		if err != nil {
			return err
		}
		if err := ix.rebuild(t.rows); err != nil {
			return err
		}
		t.indexes[strings.ToLower(ixName)] = ix
		return nil
	case walDropIndex:
		name := d.str()
		ixName := d.str()
		t, err := get(name)
		if err != nil {
			return err
		}
		delete(t.indexes, strings.ToLower(ixName))
		return nil
	}
	return fmt.Errorf("bad wal record kind %d", kind)
}
