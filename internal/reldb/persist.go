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
	"math/bits"
	"os"
	"path/filepath"
	"slices"
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
	snapVer   = 3           // 1: row-wise, no generation; 2: row-wise; 3: column-wise row groups

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
		fi, err := f.Stat()
		if err == nil {
			err = db.loadSnapshot(bufio.NewReaderSize(f, 1<<20), fi.Size())
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reldb: load snapshot %s: %w", snapPath, err)
		}
		mSnapshotLoadNS.Observe(int64(time.Since(start)))
		mSnapshotBytes.Set(fi.Size())
		// The snapshot's mtime is when the last checkpoint completed;
		// health probes measure checkpoint age from it across restarts.
		db.lastChk = fi.ModTime()
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
		putFloat(b, v.F)
	case TString, TBytes:
		putString(b, v.S)
	}
}

func putFloat(b *bytes.Buffer, f float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	b.Write(tmp[:])
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

// indexDef is an index definition as snapshots and WAL records carry it.
type indexDef struct {
	name    string
	columns []string
	kind    IndexKind
	unique  bool
}

func putIndexDef(b *bytes.Buffer, def indexDef) {
	putString(b, def.name)
	putUvarint(b, uint64(len(def.columns)))
	for _, c := range def.columns {
		putString(b, c)
	}
	b.WriteByte(byte(def.kind))
	if def.unique {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

// errTruncated reports input that ends early, or a length or count larger
// than the bytes that remain.
var errTruncated = errors.New("truncated or corrupt encoding")

// reader decodes the snapshot and WAL encodings from an in-memory buffer.
// The first failure sets err and empties the buffer, so every later call
// returns a zero value and a decode loop checks err once at its end.
// Nothing is allocated on the strength of a length or count the remaining
// bytes cannot back.
type reader struct {
	b   []byte
	err error
}

func (d *reader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// done reports the first decode error, or an error if bytes remain.
func (d *reader) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *reader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *reader) byte() byte {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// next returns the next n bytes, aliasing the buffer.
func (d *reader) next(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail(errTruncated)
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// count reads the length of a list whose items take at least a byte each.
func (d *reader) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

func (d *reader) str() string { return string(d.next(d.uvarint())) }

func (d *reader) float() float64 {
	p := d.next(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (d *reader) value() Value {
	t := Type(d.byte())
	switch t {
	case TNull:
		return Null
	case TInt, TBool, TTime:
		return Value{T: t, I: int64(d.uvarint())}
	case TFloat:
		return Float(d.float())
	case TString, TBytes:
		return Value{T: t, S: d.str()}
	}
	d.fail(fmt.Errorf("reldb: bad value tag %d", t))
	return Null
}

func (d *reader) row() Row {
	r := make(Row, d.count())
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
	s.Columns = make([]Column, d.count())
	for i := range s.Columns {
		s.Columns[i] = d.column()
	}
	s.ForeignKeys = make([]ForeignKey, d.count())
	for i := range s.ForeignKeys {
		s.ForeignKeys[i] = ForeignKey{Column: d.str(), RefTable: d.str(), RefColumn: d.str()}
	}
	return s
}

func (d *reader) indexDef() indexDef {
	def := indexDef{name: d.str(), columns: make([]string, d.count())}
	for i := range def.columns {
		def.columns[i] = d.str()
	}
	def.kind = IndexKind(d.byte())
	def.unique = d.byte() == 1
	return def
}

// tableTail reads what both snapshot layouts store of a table besides its
// schema and rows: the free list, then the index definitions.
func (d *reader) tableTail() ([]int, []indexDef) {
	free := make([]int, d.count())
	for i := range free {
		free[i] = int(d.uvarint())
	}
	defs := make([]indexDef, d.count())
	for i := range defs {
		defs[i] = d.indexDef()
	}
	return free, defs
}

// --- snapshot ---
//
// A version 3 snapshot is the 16-byte header (magic, version, generation)
// followed by frames. A frame is its payload's length (uvarint), the CRC-32
// (IEEE) of the payload (4 bytes, little endian) and the payload; the first
// frame's checksum also covers the header, so no byte of the file goes
// unchecked. The first frame holds the table count. Each table, in name
// order, is then one frame of metadata — schema, auto-increment counter,
// slot count, the free list in LIFO order, index definitions — followed by
// its live rows in slot order, up to rowGroupRows to a frame (a row group).
// The slots not on the free list are the live ones, so every row comes back
// at its slot.
//
// A row group is its row count and one block per column. A block is a
// flags byte, a NULL bitmap if the flags hold blockNulls (bit i set means
// row i is NULL), the byte length of the values, and the values. With
// blockTagged they are every cell as a tagged value. Otherwise they are the
// non-NULL cells in the column's declared type: integers, booleans and
// times as zigzag varint deltas from the previous cell, floats as 8 bytes
// little endian, strings and byte strings as a length and the bytes. A
// block falls back to tagged cells when any cell's type differs from the
// column's, so no value is ever coerced. The lengths let the loader open a
// cursor on every block and decode the group row by row.
//
// Versions 1 and 2 stored every table row by row (a presence byte, then a
// row of tagged values, per slot); they still load, and the next checkpoint
// rewrites them as version 3.

const (
	rowGroupRows = 4096

	blockNulls  = 1
	blockTagged = 2
)

// writeSnapshot writes the database as the snapshot of checkpoint
// generation gen.
func (db *DB) writeSnapshot(w io.Writer, gen uint64) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVer)
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var b bytes.Buffer
	putUvarint(&b, uint64(len(db.tables)))
	if err := writeFrame(w, crc32.ChecksumIEEE(hdr[:]), b.Bytes()); err != nil {
		return err
	}
	group := make([]Row, 0, rowGroupRows)
	var encs []colEncoder
	// Stable order for reproducible snapshots.
	for _, name := range sortedTableKeys(db.tables) {
		t := db.tables[name]
		b.Reset()
		putSchema(&b, t.schema)
		putUvarint(&b, uint64(t.autoInc))
		putUvarint(&b, uint64(len(t.rows)))
		putUvarint(&b, uint64(len(t.free)))
		for _, s := range t.free {
			putUvarint(&b, uint64(s))
		}
		putUvarint(&b, uint64(len(t.indexes)))
		for _, key := range sortedIndexKeys(t.indexes) {
			ix := t.indexes[key]
			putIndexDef(&b, indexDef{name: ix.Name, columns: ix.Columns, kind: ix.Kind, unique: ix.Unique})
		}
		if err := writeFrame(w, 0, b.Bytes()); err != nil {
			return err
		}
		encs = slices.Grow(encs[:0], len(t.schema.Columns))[:len(t.schema.Columns)]
		live := 0
		for _, row := range t.rows {
			if row == nil {
				continue
			}
			if len(row) != len(t.schema.Columns) {
				return fmt.Errorf("reldb: table %s: a row holds %d values, want %d",
					t.schema.Name, len(row), len(t.schema.Columns))
			}
			live++
			if group = append(group, row); len(group) == rowGroupRows {
				if err := writeRowGroup(w, &b, encs, group, t.schema.Columns); err != nil {
					return err
				}
				group = group[:0]
			}
		}
		if len(group) > 0 {
			if err := writeRowGroup(w, &b, encs, group, t.schema.Columns); err != nil {
				return err
			}
			group = group[:0]
		}
		if live != len(t.rows)-len(t.free) {
			return fmt.Errorf("reldb: table %s: %d live rows in %d slots, %d of them free",
				t.schema.Name, live, len(t.rows), len(t.free))
		}
	}
	return nil
}

// writeFrame writes payload as one frame whose checksum continues from seed.
func writeFrame(w io.Writer, seed uint32, payload []byte) error {
	var head [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(head[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(head[n:], crc32.Update(seed, crc32.IEEETable, payload))
	if _, err := w.Write(head[:n+4]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// colEncoder accumulates one column block of a row group. Row groups are
// encoded row by row, each cell going to its column's encoder, so rows are
// read in the order they sit in memory.
type colEncoder struct {
	flags byte
	nulls []byte
	vals  bytes.Buffer
	prev  int64 // last integer written, the base of the next delta
}

// writeRowGroup writes rows as one row group frame, using one encoder per
// column and b for the payload.
func writeRowGroup(w io.Writer, b *bytes.Buffer, encs []colEncoder, rows []Row, cols []Column) error {
	for c := range encs {
		e := &encs[c]
		e.flags, e.nulls, e.prev = 0, e.nulls[:0], 0
		e.vals.Reset()
	}
	for _, r := range rows {
		for c := range encs {
			if t := r[c].T; t == TNull {
				encs[c].flags |= blockNulls
			} else if t != cols[c].Type {
				encs[c].flags |= blockTagged
			}
		}
	}
	for i, r := range rows {
		for c := range encs {
			e, v := &encs[c], r[c]
			if e.flags&blockTagged != 0 {
				putValue(&e.vals, v)
				continue
			}
			if e.flags == blockNulls && i&7 == 0 {
				e.nulls = append(e.nulls, 0)
			}
			switch v.T {
			case TNull:
				e.nulls[i>>3] |= 1 << (i & 7)
			case TInt, TBool, TTime:
				d := v.I - e.prev
				putUvarint(&e.vals, uint64(d<<1)^uint64(d>>63))
				e.prev = v.I
			case TFloat:
				putFloat(&e.vals, v.F)
			case TString, TBytes:
				putString(&e.vals, v.S)
			}
		}
	}
	b.Reset()
	putUvarint(b, uint64(len(rows)))
	for c := range encs {
		e := &encs[c]
		if e.flags&blockTagged != 0 {
			e.flags = blockTagged
		}
		b.WriteByte(e.flags)
		b.Write(e.nulls)
		putUvarint(b, uint64(e.vals.Len()))
		b.Write(e.vals.Bytes())
	}
	return writeFrame(w, 0, b.Bytes())
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

// loadSnapshot loads a snapshot of size bytes, any version, from r.
func (db *DB) loadSnapshot(r *bufio.Reader, size int64) error {
	var hdr [16]byte
	n := 8
	if _, err := io.ReadFull(r, hdr[:n]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != snapMagic {
		return fmt.Errorf("bad magic")
	}
	v := binary.LittleEndian.Uint32(hdr[4:])
	switch v {
	case 1:
	case 2, snapVer:
		if _, err := io.ReadFull(r, hdr[n:]); err != nil {
			return err
		}
		n = len(hdr)
		db.gen = binary.LittleEndian.Uint64(hdr[8:])
	default:
		return fmt.Errorf("unsupported snapshot version %d", v)
	}
	if v == snapVer {
		return db.loadColumnSnapshot(&frameReader{r: r, left: size - int64(n)}, crc32.ChecksumIEEE(hdr[:]))
	}
	body := make([]byte, max(size-int64(n), 0))
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return db.loadRowSnapshot(&reader{b: body})
}

// loadRowSnapshot loads the body of a version 1 or 2 snapshot.
func (db *DB) loadRowSnapshot(d *reader) error {
	ntab := d.uvarint()
	for i := uint64(0); i < ntab && d.err == nil; i++ {
		t := newTable(d.schema())
		t.autoInc = int64(d.uvarint())
		t.rows = make([]Row, d.count())
		for s := range t.rows {
			if d.byte() == 0 {
				continue
			}
			t.rows[s] = d.row()
			if d.err == nil && len(t.rows[s]) != len(t.schema.Columns) {
				return fmt.Errorf("table %s: slot %d holds %d values, want %d",
					t.schema.Name, s, len(t.rows[s]), len(t.schema.Columns))
			}
		}
		free, defs := d.tableTail()
		if d.err != nil {
			break
		}
		if err := t.schema.validate(); err != nil {
			return err
		}
		isFree, err := t.setFree(free)
		if err != nil {
			return err
		}
		for s, row := range t.rows {
			if (row == nil) != isFree[s] {
				return fmt.Errorf("table %s: slot %d is empty or on the free list, not both",
					t.schema.Name, s)
			}
		}
		if err := db.addLoadedTable(t, defs); err != nil {
			return err
		}
	}
	return d.done()
}

// frameReader reads the frames of a version 3 snapshot, each into the same
// buffer. left counts the file bytes not yet read: a frame declaring more
// fails before anything is allocated for it.
type frameReader struct {
	r    *bufio.Reader
	left int64
	buf  []byte
}

// next reads the next frame, checks its checksum continued from seed, and
// returns a reader over its payload, valid until the following call.
func (f *frameReader) next(seed uint32) (reader, error) {
	n, err := binary.ReadUvarint(f.r)
	if err != nil {
		return reader{}, noEOF(err)
	}
	f.left -= int64(bits.Len64(n|1)+6) / 7
	if n > uint64(max(f.left-4, 0)) {
		return reader{}, fmt.Errorf("frame of %d bytes overruns the file", n)
	}
	var sum [4]byte
	if _, err := io.ReadFull(f.r, sum[:]); err != nil {
		return reader{}, noEOF(err)
	}
	if uint64(cap(f.buf)) < n {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(f.r, f.buf); err != nil {
		return reader{}, noEOF(err)
	}
	f.left -= 4 + int64(n)
	if crc32.Update(seed, crc32.IEEETable, f.buf) != binary.LittleEndian.Uint32(sum[:]) {
		return reader{}, fmt.Errorf("frame checksum mismatch")
	}
	return reader{b: f.buf}, nil
}

// noEOF turns io.EOF into io.ErrUnexpectedEOF: a snapshot never ends
// between the frames its counts promise.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// loadColumnSnapshot loads the frames of a version 3 snapshot; the first
// frame's checksum continues from seed.
func (db *DB) loadColumnSnapshot(fr *frameReader, seed uint32) error {
	d, err := fr.next(seed)
	if err != nil {
		return err
	}
	ntab := d.uvarint()
	if err := d.done(); err != nil {
		return err
	}
	var group []Row
	var cur []colCursor
	for i := uint64(0); i < ntab; i++ {
		d, err := fr.next(0)
		if err != nil {
			return err
		}
		t := newTable(d.schema())
		t.autoInc = int64(d.uvarint())
		nslots := d.uvarint()
		free, defs := d.tableTail()
		if err := d.done(); err != nil {
			return err
		}
		if err := t.schema.validate(); err != nil {
			return err
		}
		// A live row takes at least one bit of its row group; with no
		// columns, a group of up to rowGroupRows rows takes at least six
		// bytes (length, checksum, row count).
		maxLive := 8 * uint64(fr.left)
		if len(t.schema.Columns) == 0 {
			maxLive = uint64(fr.left) / 6 * rowGroupRows
		}
		if nslots > uint64(len(free))+maxLive {
			return fmt.Errorf("table %s: %d slots overrun the file", t.schema.Name, nslots)
		}
		t.rows = make([]Row, nslots)
		isFree, err := t.setFree(free)
		if err != nil {
			return err
		}
		slot := 0
		for left := t.live; left > 0; left -= len(group) {
			d, err := fr.next(0)
			if err != nil {
				return err
			}
			n := d.uvarint()
			if d.err == nil && (n == 0 || n > uint64(min(left, rowGroupRows))) {
				return fmt.Errorf("table %s: row group of %d rows with %d left", t.schema.Name, n, left)
			}
			group = group[:0]
			for range n {
				for isFree[slot] {
					slot++
				}
				t.rows[slot] = t.newRowBuf()
				group = append(group, t.rows[slot])
				slot++
			}
			cur = slices.Grow(cur[:0], len(t.schema.Columns))[:len(t.schema.Columns)]
			if err := decodeRowGroup(&d, cur, group, t.schema.Columns); err != nil {
				return fmt.Errorf("table %s: row group: %w", t.schema.Name, err)
			}
		}
		if err := db.addLoadedTable(t, defs); err != nil {
			return err
		}
	}
	if fr.left != 0 {
		return fmt.Errorf("%d bytes after the last table", fr.left)
	}
	return nil
}

// colCursor decodes one column block of a row group, a cell at a time.
type colCursor struct {
	reader        // the block's values
	nulls  []byte // NULL bitmap, or nil
	typ    Type   // the column's declared type, or TNull for tagged cells
	prev   int64  // last integer decoded, the base of the next delta
}

// decodeRowGroup decodes the column blocks d holds into rows, row by row,
// with one cursor per column block.
func decodeRowGroup(d *reader, cur []colCursor, rows []Row, cols []Column) error {
	for c := range cur {
		k := &cur[c]
		*k = colCursor{typ: cols[c].Type}
		switch flags := d.byte(); flags {
		case 0:
		case blockNulls:
			k.nulls = d.next(uint64(len(rows)+7) / 8)
		case blockTagged:
			k.typ = TNull
		default:
			return fmt.Errorf("bad column block flags %#x", flags)
		}
		switch k.typ {
		case TNull, TInt, TBool, TTime, TFloat, TString, TBytes:
		default:
			return fmt.Errorf("column %s of unknown type %d", cols[c].Name, k.typ)
		}
		k.b = d.next(d.uvarint())
	}
	if err := d.done(); err != nil {
		return err
	}
	for i, r := range rows {
		for c := range cur {
			k := &cur[c]
			if k.nulls != nil && k.nulls[i>>3]&(1<<(i&7)) != 0 {
				continue
			}
			switch k.typ {
			case TNull:
				r[c] = k.value()
			case TInt, TBool, TTime:
				u := k.uvarint()
				k.prev += int64(u>>1) ^ -int64(u&1)
				r[c] = Value{T: k.typ, I: k.prev}
			case TFloat:
				r[c] = Float(k.float())
			default:
				r[c] = Value{T: k.typ, S: k.str()}
			}
		}
	}
	for c := range cur {
		if err := cur[c].done(); err != nil {
			return fmt.Errorf("column %s: %w", cols[c].Name, err)
		}
	}
	return nil
}

// setFree installs a loaded free list on t, whose rows hold every slot,
// and sets its live count. It fails unless every entry names a slot and
// none repeats, and returns which slots are free.
func (t *Table) setFree(free []int) ([]bool, error) {
	isFree := make([]bool, len(t.rows))
	for _, s := range free {
		if s < 0 || s >= len(t.rows) {
			return nil, fmt.Errorf("table %s: free slot %d out of range [0, %d)", t.schema.Name, s, len(t.rows))
		}
		if isFree[s] {
			return nil, fmt.Errorf("table %s: free slot %d listed twice", t.schema.Name, s)
		}
		isFree[s] = true
	}
	t.free, t.live = free, len(t.rows)-len(free)
	return isFree, nil
}

// addLoadedTable rebuilds a loaded table's primary-key index and builds the
// indexes defs describe, then adds the table to the database.
func (db *DB) addLoadedTable(t *Table, defs []indexDef) error {
	key := strings.ToLower(t.schema.Name)
	if db.tables[key] != nil {
		return fmt.Errorf("table %s stored twice", t.schema.Name)
	}
	if t.pk != nil {
		if err := t.pk.rebuild(t.rows, t.live); err != nil {
			return err
		}
	}
	for _, def := range defs {
		ix, err := t.buildIndex(def)
		if err != nil {
			return err
		}
		t.indexes[strings.ToLower(def.name)] = ix
	}
	db.tables[key] = t
	return nil
}

// buildIndex creates the index def describes and fills it from t's rows.
func (t *Table) buildIndex(def indexDef) (*Index, error) {
	if def.kind > OrderedIndex {
		return nil, fmt.Errorf("index %s of unknown kind %d", def.name, def.kind)
	}
	cols := make([]int, len(def.columns))
	for i, column := range def.columns {
		if cols[i] = t.schema.ColumnIndex(column); cols[i] < 0 {
			return nil, fmt.Errorf("index %s on unknown column %s", def.name, column)
		}
	}
	ix, err := newIndex(def.name, t.schema.Name, def.columns, cols, def.kind, def.unique)
	if err != nil {
		return nil, err
	}
	return ix, ix.rebuild(t.rows, t.live)
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
		putIndexDef(b, indexDef{name: r.name, columns: r.ixColumns, kind: r.ixKind, unique: r.unique})
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
		d := &reader{b: payload}
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
		def := d.indexDef()
		t, err := get(name)
		if err != nil {
			return err
		}
		ix, err := t.buildIndex(def)
		if err != nil {
			return err
		}
		t.indexes[strings.ToLower(def.name)] = ix
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
