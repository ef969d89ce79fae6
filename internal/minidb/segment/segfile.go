package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Segment files are immutable once written: a header, concatenated block
// payloads, then a footer directory describing every block (offset,
// length, payload CRC, and an opaque caller-supplied meta blob — minidb
// stores the block's zone map there). The file becomes visible atomically:
// the writer builds it under a .tmp name, fsyncs, renames into place, and
// fsyncs the directory, so a crash mid-write leaves only a .tmp orphan
// that recovery deletes.
//
// Layout:
//
//	"PSEG1\n\x00\x00"                               8-byte header
//	block payloads, back to back
//	footer: u32 nblocks, then per block
//	        {u64 off, u32 len, u32 crc, u32 metaLen, meta}
//	trailer: u64 footerOff, u32 footerLen, u32 crc32(footer)
const (
	segHeaderLen  = 8
	segTrailerLen = 16
)

var segHeader = [segHeaderLen]byte{'P', 'S', 'E', 'G', '1', '\n', 0, 0}

// BlockInfo locates one block inside a segment file.
type BlockInfo struct {
	Off  int64
	Len  int32
	CRC  uint32
	Meta []byte // opaque per-block metadata from the writer
}

// Writer builds a segment file block by block. Not safe for concurrent
// use; a segment is built by one compaction/seal at a time.
type Writer struct {
	path string // final path
	tmp  string
	f    *os.File
	off  int64
	dir  []BlockInfo
	err  error
}

// NewWriter starts a segment file that will become visible at path once
// Finish succeeds.
func NewWriter(path string) (*Writer, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{path: path, tmp: tmp, f: f}
	if _, err := f.Write(segHeader[:]); err != nil {
		w.Abort()
		return nil, err
	}
	w.off = segHeaderLen
	return w, nil
}

// Append writes one block payload with its metadata blob and returns the
// block's index within the file.
func (w *Writer) Append(payload, meta []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if _, err := w.f.Write(payload); err != nil {
		w.err = err
		return 0, err
	}
	info := BlockInfo{
		Off: w.off, Len: int32(len(payload)),
		CRC:  crc32.ChecksumIEEE(payload),
		Meta: append([]byte(nil), meta...),
	}
	w.off += int64(len(payload))
	w.dir = append(w.dir, info)
	return len(w.dir) - 1, nil
}

// Finish writes the footer, fsyncs, renames the file into place, and
// fsyncs the directory so the rename itself is durable.
func (w *Writer) Finish() error {
	if w.err != nil {
		w.Abort()
		return w.err
	}
	footer := encodeFooter(w.dir)
	var trailer [segTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(w.off))
	binary.LittleEndian.PutUint32(trailer[8:12], uint32(len(footer)))
	binary.LittleEndian.PutUint32(trailer[12:16], crc32.ChecksumIEEE(footer))
	if _, err := w.f.Write(footer); err != nil {
		w.Abort()
		return err
	}
	if _, err := w.f.Write(trailer[:]); err != nil {
		w.Abort()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return err
	}
	return syncDir(filepath.Dir(w.path))
}

// Abort discards the partially written file.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.tmp)
}

func encodeFooter(dir []BlockInfo) []byte {
	n := 4
	for i := range dir {
		n += 8 + 4 + 4 + 4 + len(dir[i].Meta)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	for i := range dir {
		b := &dir[i]
		out = binary.LittleEndian.AppendUint64(out, uint64(b.Off))
		out = binary.LittleEndian.AppendUint32(out, uint32(b.Len))
		out = binary.LittleEndian.AppendUint32(out, b.CRC)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Meta)))
		out = append(out, b.Meta...)
	}
	return out
}

// File is an opened, validated segment file. ReadBlock uses positional
// reads, so one File serves concurrent readers without coordination.
type File struct {
	Path   string
	Blocks []BlockInfo
	f      *os.File
}

// Open validates a segment file's header, trailer, and footer CRC and
// returns a handle with the decoded block directory.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fail := func(format string, args ...any) (*File, error) {
		f.Close()
		return nil, fmt.Errorf("segment: %s: "+format, append([]any{path}, args...)...)
	}
	if st.Size() < segHeaderLen+segTrailerLen {
		return fail("truncated (%d bytes)", st.Size())
	}
	var hdr [segHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fail("read header: %v", err)
	}
	if hdr != segHeader {
		return fail("bad header")
	}
	var trailer [segTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], st.Size()-segTrailerLen); err != nil {
		return fail("read trailer: %v", err)
	}
	footOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	footLen := int64(binary.LittleEndian.Uint32(trailer[8:12]))
	footCRC := binary.LittleEndian.Uint32(trailer[12:16])
	if footOff < segHeaderLen || footOff+footLen+segTrailerLen != st.Size() {
		return fail("bad trailer geometry")
	}
	footer := make([]byte, footLen)
	if _, err := f.ReadAt(footer, footOff); err != nil {
		return fail("read footer: %v", err)
	}
	if crc32.ChecksumIEEE(footer) != footCRC {
		return fail("footer checksum mismatch")
	}
	blocks, err := decodeFooter(footer)
	if err != nil {
		return fail("%v", err)
	}
	for i := range blocks {
		b := &blocks[i]
		// Subtract rather than add: Off+Len can overflow for an Off
		// near MaxInt64 (decodeFooter guarantees Len >= 0).
		if b.Off < segHeaderLen || b.Off > footOff-int64(b.Len) {
			return fail("block %d out of bounds", i)
		}
	}
	return &File{Path: path, Blocks: blocks, f: f}, nil
}

func decodeFooter(footer []byte) ([]BlockInfo, error) {
	if len(footer) < 4 {
		return nil, fmt.Errorf("short footer")
	}
	n := binary.LittleEndian.Uint32(footer)
	footer = footer[4:]
	// Every entry takes at least 20 bytes; bound the count by what the
	// footer can hold before sizing the directory from it.
	if n > uint32(len(footer)/20) {
		return nil, fmt.Errorf("footer claims %d blocks in %d bytes", n, len(footer))
	}
	blocks := make([]BlockInfo, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(footer) < 20 {
			return nil, fmt.Errorf("short footer entry %d", i)
		}
		var b BlockInfo
		b.Off = int64(binary.LittleEndian.Uint64(footer[0:8]))
		b.Len = int32(binary.LittleEndian.Uint32(footer[8:12]))
		if b.Len < 0 {
			return nil, fmt.Errorf("footer entry %d: negative length %d", i, b.Len)
		}
		b.CRC = binary.LittleEndian.Uint32(footer[12:16])
		metaLen := binary.LittleEndian.Uint32(footer[16:20])
		footer = footer[20:]
		if uint32(len(footer)) < metaLen {
			return nil, fmt.Errorf("short footer meta %d", i)
		}
		b.Meta = footer[:metaLen:metaLen]
		footer = footer[metaLen:]
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// NumBlocks returns the block count.
func (s *File) NumBlocks() int { return len(s.Blocks) }

// ReadBlock reads and checksum-verifies one block payload.
func (s *File) ReadBlock(i int) ([]byte, error) {
	if i < 0 || i >= len(s.Blocks) {
		return nil, fmt.Errorf("segment: %s: no block %d", s.Path, i)
	}
	b := &s.Blocks[i]
	payload := make([]byte, b.Len)
	if _, err := s.f.ReadAt(payload, b.Off); err != nil {
		return nil, fmt.Errorf("segment: %s: read block %d: %w", s.Path, i, err)
	}
	if crc32.ChecksumIEEE(payload) != b.CRC {
		return nil, fmt.Errorf("segment: %s: block %d checksum mismatch", s.Path, i)
	}
	return payload, nil
}

// Close releases the file handle.
func (s *File) Close() error { return s.f.Close() }

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
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
