package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"hybridtlb/internal/mem"
)

// Binary fixed-width encoding ("bin" format): an mmap-able trace layout
// with a versioned header and fixed-size records, so paper-scale traces
// replay with no decode branch in the hot loop. On little-endian hosts the
// on-disk record layout matches the in-memory Record layout exactly and
// the reader hands out record slices straight over the mapped bytes.
//
// Layout (all little-endian):
//
//	offset  size  field
//	0       8     magic "HTLBTRB2"
//	8       4     version (currently 1)
//	12      4     reserved (zero)
//	16      8     record count (0 = derive from file size)
//	24      16*N  records
//
// Each record is 16 bytes: VPN u64, Instrs u32, Write u8 (0 or 1), and
// 3 zero pad bytes — the exact field layout of Record on a 64-bit
// little-endian machine, which is what makes the zero-copy view legal.
const (
	binMagic      = "HTLBTRB2"
	binVersion    = 1
	binHeaderSize = 24
	binRecordSize = 16
)

// BinWriter encodes records into the fixed-width binary format.
type BinWriter struct {
	w     *bufio.Writer
	under io.Writer
	count uint64
}

// NewBinWriter emits the header (with a zero record count) and returns a
// writer. Close patches the count in place when the underlying writer
// supports seeking; otherwise the count stays zero and readers derive it
// from the file size.
func NewBinWriter(w io.Writer) (*BinWriter, error) {
	bw := bufio.NewWriter(w)
	var head [binHeaderSize]byte
	copy(head[:8], binMagic)
	binary.LittleEndian.PutUint32(head[8:12], binVersion)
	if _, err := bw.Write(head[:]); err != nil {
		return nil, err
	}
	return &BinWriter{w: bw, under: w}, nil
}

// Write appends one record.
func (t *BinWriter) Write(r Record) error {
	var buf [binRecordSize]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.VPN))
	binary.LittleEndian.PutUint32(buf[8:12], r.Instrs)
	if r.Write {
		buf[12] = 1
	}
	if _, err := t.w.Write(buf[:]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns how many records have been written.
func (t *BinWriter) Count() uint64 { return t.count }

// Close flushes buffered output and, when the underlying writer is
// seekable, patches the record count into the header. It does not close
// the underlying writer.
func (t *BinWriter) Close() error {
	if err := t.w.Flush(); err != nil {
		return err
	}
	ws, ok := t.under.(io.WriteSeeker)
	if !ok {
		return nil
	}
	if _, err := ws.Seek(16, io.SeekStart); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], t.count)
	if _, err := ws.Write(cnt[:]); err != nil {
		return err
	}
	_, err := ws.Seek(0, io.SeekEnd)
	return err
}

// Bin replays records from a parsed binary trace; it implements
// BatchSource, copying batches straight out of the record view.
type Bin struct {
	records []Record
	pos     int
	// unmap releases an mmap backing the records view, when there is one.
	unmap func() error
}

// NewBin parses an in-memory binary trace image. On little-endian hosts
// with a validated image the returned Bin's records alias data directly
// (zero-copy); callers must keep data alive and unmodified. Otherwise the
// records are decoded into a fresh slice.
func NewBin(data []byte) (*Bin, error) {
	n, err := binValidateHeader(data)
	if err != nil {
		return nil, err
	}
	body := data[binHeaderSize : binHeaderSize+n*binRecordSize]
	if recs := castRecords(body); recs != nil && binBodyCanonical(body) {
		return &Bin{records: recs}, nil
	}
	recs := make([]Record, n)
	for i := range recs {
		off := i * binRecordSize
		recs[i] = Record{
			VPN:    mem.VPN(binary.LittleEndian.Uint64(body[off : off+8])),
			Instrs: binary.LittleEndian.Uint32(body[off+8 : off+12]),
			Write:  body[off+12] != 0,
		}
	}
	return &Bin{records: recs}, nil
}

// binValidateHeader checks magic/version and returns the record count.
func binValidateHeader(data []byte) (int, error) {
	if len(data) < binHeaderSize {
		return 0, errors.New("trace: bin image shorter than header")
	}
	if string(data[:8]) != binMagic {
		return 0, errors.New("trace: bad magic; not a binary trace")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != binVersion {
		return 0, fmt.Errorf("trace: unsupported bin version %d", v)
	}
	body := len(data) - binHeaderSize
	count := binary.LittleEndian.Uint64(data[16:24])
	if count == 0 {
		if body%binRecordSize != 0 {
			return 0, fmt.Errorf("trace: bin body %d bytes is not a whole record count", body)
		}
		return body / binRecordSize, nil
	}
	if count > uint64(body/binRecordSize) {
		return 0, fmt.Errorf("trace: header count %d exceeds %d records present", count, body/binRecordSize)
	}
	return int(count), nil
}

// binBodyCanonical reports whether every record's Write byte is 0 or 1 and
// its pad bytes are zero — the precondition for aliasing the bytes as
// []Record (Go bools must be exactly 0 or 1 in memory).
func binBodyCanonical(body []byte) bool {
	for off := 12; off < len(body); off += binRecordSize {
		if body[off] > 1 || body[off+1] != 0 || body[off+2] != 0 || body[off+3] != 0 {
			return false
		}
	}
	return true
}

// Next implements Source.
func (b *Bin) Next() (Record, bool) {
	if b.pos >= len(b.records) {
		return Record{}, false
	}
	r := b.records[b.pos]
	b.pos++
	return r, true
}

// ReadBatch implements BatchSource.
func (b *Bin) ReadBatch(dst []Record) int {
	n := copy(dst, b.records[b.pos:])
	b.pos += n
	return n
}

// Reset rewinds the source to the beginning.
func (b *Bin) Reset() { b.pos = 0 }

// Len returns the total record count.
func (b *Bin) Len() int { return len(b.records) }

// Close releases the mmap backing the record view, if any. The records
// must not be used afterwards.
func (b *Bin) Close() error {
	if b.unmap == nil {
		return nil
	}
	fn := b.unmap
	b.unmap = nil
	b.records = nil
	return fn()
}

// OpenBin opens a binary trace file, memory-mapping it when the platform
// supports that (records then stream straight from the page cache with no
// decode pass).
func OpenBin(path string) (*Bin, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		// No mmap on this platform (or it failed): fall back to reading
		// the file into memory.
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		b, err := NewBin(data)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	b, err := NewBin(data)
	if err != nil {
		unmap()
		return nil, err
	}
	b.unmap = unmap
	return b, nil
}

// OpenPath opens a trace file of either format, auto-detected by its
// 8-byte magic header. The returned close func releases the file or
// mapping backing the source.
func OpenPath(path string) (BatchSource, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		_ = f.Close() // read-only; the read error is the failure
		return nil, nil, fmt.Errorf("trace: reading magic of %s: %w", path, err)
	}
	if string(head[:]) == binMagic {
		if err := f.Close(); err != nil {
			return nil, nil, err
		}
		b, err := OpenBin(path)
		if err != nil {
			return nil, nil, err
		}
		return b, b.Close, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		_ = f.Close() // read-only; the seek error is the failure
		return nil, nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		_ = f.Close() // read-only; the header error is the failure
		return nil, nil, err
	}
	return r, f.Close, nil
}
