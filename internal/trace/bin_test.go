package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridtlb/internal/mem"
)

func sampleRecords(n int) []Record {
	recs := make([]Record, n)
	v := mem.VPN(0x1000)
	for i := range recs {
		v += mem.VPN(i%7) * 3
		recs[i] = Record{VPN: v, Instrs: uint32(i%19 + 1), Write: i%3 == 0}
	}
	return recs
}

func writeBinBytes(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBinWriter(&buf)
	if err != nil {
		t.Fatalf("NewBinWriter: %v", err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestBinRoundTrip(t *testing.T) {
	recs := sampleRecords(533)
	b, err := NewBin(writeBinBytes(t, recs))
	if err != nil {
		t.Fatalf("NewBin: %v", err)
	}
	if b.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(recs))
	}
	got := Collect(b, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch")
	}
}

func TestBinFileRoundTripAndCountPatch(t *testing.T) {
	recs := sampleRecords(97)
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewBinWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Files get the count patched into the header (writer was seekable).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(raw[16:24]); got != uint64(len(recs)) {
		t.Fatalf("patched count = %d, want %d", got, len(recs))
	}

	b, err := OpenBin(path)
	if err != nil {
		t.Fatalf("OpenBin: %v", err)
	}
	defer b.Close()
	if got := Collect(b, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("file round trip mismatch")
	}
}

func TestBinZeroCountDerivesFromSize(t *testing.T) {
	recs := sampleRecords(12)
	img := writeBinBytes(t, recs)
	// A non-seekable writer leaves count zero; emulate by clearing it.
	binary.LittleEndian.PutUint64(img[16:24], 0)
	b, err := NewBin(img)
	if err != nil {
		t.Fatalf("NewBin: %v", err)
	}
	if b.Len() != len(recs) {
		t.Fatalf("derived Len = %d, want %d", b.Len(), len(recs))
	}
}

func TestBinHeaderValidation(t *testing.T) {
	recs := sampleRecords(4)
	good := writeBinBytes(t, recs)

	short := good[:binHeaderSize-1]
	if _, err := NewBin(short); err == nil {
		t.Error("short image accepted")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, err := NewBin(badMagic); err == nil {
		t.Error("bad magic accepted")
	}

	badVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badVersion[8:12], 99)
	if _, err := NewBin(badVersion); err == nil {
		t.Error("bad version accepted")
	}

	overCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(overCount[16:24], uint64(len(recs)+1))
	if _, err := NewBin(overCount); err == nil {
		t.Error("count beyond body accepted")
	}

	ragged := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(ragged[16:24], 0)
	ragged = append(ragged, 0xAB) // body no longer a whole record count
	if _, err := NewBin(ragged); err == nil {
		t.Error("ragged zero-count body accepted")
	}

	// Truncated count: header says fewer records than present — legal,
	// reads exactly count records.
	trunc := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(trunc[16:24], 2)
	b, err := NewBin(trunc)
	if err != nil {
		t.Fatalf("truncating count rejected: %v", err)
	}
	if got := Collect(b, 0); !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("truncated read mismatch")
	}
}

func TestBinNonCanonicalBoolDecodes(t *testing.T) {
	recs := sampleRecords(8)
	img := writeBinBytes(t, recs)
	// Corrupt one Write byte to a non-bool value and one pad byte: the
	// zero-copy view must refuse and the decode path must normalise.
	img[binHeaderSize+12] = 7
	img[binHeaderSize+binRecordSize+13] = 1
	b, err := NewBin(img)
	if err != nil {
		t.Fatalf("NewBin: %v", err)
	}
	got := Collect(b, 0)
	want := append([]Record(nil), recs...)
	want[0].Write = true // 7 != 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode-path normalisation mismatch")
	}
}

// TestBinDrainAndReset reads a Bin to exhaustion through ReadBatch, then
// rewinds it: Reset must replay every record from the start.
func TestBinDrainAndReset(t *testing.T) {
	recs := sampleRecords(40)
	b, err := NewBin(writeBinBytes(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Next(); !ok {
		t.Fatal("Next failed")
	}
	buf := make([]Record, 2*len(recs))
	if n := b.ReadBatch(buf); !reflect.DeepEqual(buf[:n], recs[1:]) {
		t.Fatalf("ReadBatch after Next returned %d records, want %d", n, len(recs)-1)
	}
	if _, ok := b.Next(); ok {
		t.Fatal("Next after draining should report exhaustion")
	}
	if n := b.ReadBatch(buf); n != 0 {
		t.Fatalf("ReadBatch after draining = %d records, want 0", n)
	}
	b.Reset()
	if n := b.ReadBatch(buf); !reflect.DeepEqual(buf[:n], recs) {
		t.Fatalf("post-Reset ReadBatch = %d records, want %d", n, len(recs))
	}
}

func TestOpenPathAutoDetect(t *testing.T) {
	recs := sampleRecords(64)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "t.bin")
	if err := os.WriteFile(binPath, writeBinBytes(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}

	v1Path := filepath.Join(dir, "t.v1")
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1Path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{binPath, v1Path} {
		src, closeFn, err := OpenPath(path)
		if err != nil {
			t.Fatalf("OpenPath(%s): %v", path, err)
		}
		got := Collect(src, 0)
		if err := closeFn(); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("OpenPath(%s) records mismatch", path)
		}
	}

	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenPath(junk); err == nil {
		t.Fatal("junk file accepted")
	}
}
