// Package trace defines the memory-access trace format the simulator
// consumes: a stream of (virtual page, instruction-delta, read/write)
// records, like the Pin-generated traces the paper drives its simulator
// with, plus a compact binary encoding for record-and-replay.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"hybridtlb/internal/mem"
)

// Record is one memory access.
type Record struct {
	// VPN is the virtual page touched.
	VPN mem.VPN
	// Instrs is the number of instructions retired since the previous
	// memory access, inclusive of this one (used to account translation
	// cycles per instruction).
	Instrs uint32
	// Write marks stores (irrelevant to TLB hit/miss behaviour but kept
	// for dirty-bit realism and future extensions).
	Write bool
}

// Source is a stream of access records. Next returns false when the
// stream is exhausted.
type Source interface {
	Next() (Record, bool)
}

// BatchSource is a Source that can also fill whole record batches, the
// interface the batched simulation pipeline consumes. ReadBatch stores up
// to len(dst) records into dst and returns how many it stored; it may
// return fewer than requested mid-stream, and returns 0 only when the
// stream is exhausted (or len(dst) is 0). Interleaving Next and ReadBatch
// calls is legal: both consume the same underlying position.
type BatchSource interface {
	Source
	ReadBatch(dst []Record) int
}

// Batched adapts any Source to a BatchSource: sources with a native
// ReadBatch are returned as-is, legacy sources get a wrapper that fills
// batches through Next.
func Batched(src Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &nextBatcher{src: src}
}

type nextBatcher struct{ src Source }

func (b *nextBatcher) Next() (Record, bool) { return b.src.Next() }

func (b *nextBatcher) ReadBatch(dst []Record) int {
	for n := range dst {
		r, ok := b.src.Next()
		if !ok {
			return n
		}
		dst[n] = r
	}
	return len(dst)
}

// SliceSource replays records from memory.
type SliceSource struct {
	records []Record
	pos     int
}

// NewSliceSource wraps a record slice.
func NewSliceSource(records []Record) *SliceSource {
	return &SliceSource{records: records}
}

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.records) {
		return Record{}, false
	}
	r := s.records[s.pos]
	s.pos++
	return r, true
}

// ReadBatch implements BatchSource.
func (s *SliceSource) ReadBatch(dst []Record) int {
	n := copy(dst, s.records[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Limit wraps a source, truncating it after n records. The result is a
// BatchSource (batching through the wrapped source's native ReadBatch
// when it has one).
func Limit(src Source, n uint64) BatchSource {
	return &limitSource{src: Batched(src), left: n}
}

type limitSource struct {
	src  BatchSource
	left uint64
}

func (l *limitSource) Next() (Record, bool) {
	if l.left == 0 {
		return Record{}, false
	}
	l.left--
	return l.src.Next()
}

// ReadBatch implements BatchSource.
func (l *limitSource) ReadBatch(dst []Record) int {
	if l.left < uint64(len(dst)) {
		dst = dst[:l.left]
	}
	n := l.src.ReadBatch(dst)
	l.left -= uint64(n)
	return n
}

// Collect drains up to n records from a source into a slice (n == 0 drains
// everything), reading them in batches. A positive n sizes the slice up
// front.
func Collect(src Source, n uint64) []Record {
	var out []Record
	if n != 0 {
		out = make([]Record, 0, n)
	}
	bs := Batched(src)
	for n == 0 || uint64(len(out)) < n {
		if len(out) == cap(out) {
			out = slices.Grow(out, 512)
		}
		k := bs.ReadBatch(out[len(out):cap(out)])
		if k == 0 {
			break
		}
		out = out[:len(out)+k]
	}
	return out
}

// Binary encoding: a fixed magic header, then one varint-packed record per
// access. VPNs are delta-encoded (zig-zag) against the previous record
// because workloads revisit nearby pages, keeping traces compact.

const magic = "HTLBTRC1"

// Writer encodes records to a stream.
type Writer struct {
	w       *bufio.Writer
	prevVPN mem.VPN
	started bool
	count   uint64
}

// NewWriter creates a trace writer and emits the header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (t *Writer) Write(r Record) error {
	var buf [binary.MaxVarintLen64 * 2]byte
	delta := int64(r.VPN) - int64(t.prevVPN)
	n := binary.PutVarint(buf[:], delta)
	t.prevVPN = r.VPN
	packed := uint64(r.Instrs) << 1
	if r.Write {
		packed |= 1
	}
	n += binary.PutUvarint(buf[n:], packed)
	if _, err := t.w.Write(buf[:n]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns how many records have been written.
func (t *Writer) Count() uint64 { return t.count }

// Flush flushes buffered output; call it before closing the underlying
// writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader decodes a trace stream; it implements Source.
type Reader struct {
	r       *bufio.Reader
	prevVPN mem.VPN
	err     error
}

// NewReader validates the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic; not a trace stream")
	}
	return &Reader{r: br}, nil
}

// Next implements Source. Decoding errors terminate the stream and are
// reported by Err.
func (t *Reader) Next() (Record, bool) {
	if t.err != nil {
		return Record{}, false
	}
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		if err != io.EOF {
			t.err = err
		}
		return Record{}, false
	}
	packed, err := binary.ReadUvarint(t.r)
	if err != nil {
		t.err = fmt.Errorf("trace: truncated record: %w", err)
		return Record{}, false
	}
	vpn := mem.VPN(int64(t.prevVPN) + delta)
	t.prevVPN = vpn
	return Record{VPN: vpn, Instrs: uint32(packed >> 1), Write: packed&1 != 0}, true
}

// ReadBatch implements BatchSource. A mid-stream decode error ends the
// final (possibly partial) batch exactly as Next ends the stream: the
// records decoded before the bad byte are returned, the error is
// reported by Err, and every later call returns 0.
func (t *Reader) ReadBatch(dst []Record) int {
	if t.err != nil {
		return 0
	}
	prev := t.prevVPN
	for n := range dst {
		delta, err := binary.ReadVarint(t.r)
		if err != nil {
			if err != io.EOF {
				t.err = err
			}
			t.prevVPN = prev
			return n
		}
		packed, err := binary.ReadUvarint(t.r)
		if err != nil {
			t.err = fmt.Errorf("trace: truncated record: %w", err)
			t.prevVPN = prev
			return n
		}
		prev = mem.VPN(int64(prev) + delta)
		dst[n] = Record{VPN: prev, Instrs: uint32(packed >> 1), Write: packed&1 != 0}
	}
	t.prevVPN = prev
	return len(dst)
}

// Err reports a decoding error encountered by Next or ReadBatch, if any.
func (t *Reader) Err() error { return t.err }
