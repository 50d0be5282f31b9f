package trace

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"hybridtlb/internal/mem"
)

// testRecords is a deterministic stream of n records.
func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{VPN: mem.VPN(0x4000 + i*7%1000), Instrs: uint32(1 + i%5), Write: i%3 == 0}
	}
	return recs
}

// waitGoroutines waits until no more than baseline goroutines run, and
// fails the test if that takes longer than a few seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// drain reads src to its end through ReadBatch calls of dstLen records.
func drain(src BatchSource, dstLen int) []Record {
	var out []Record
	dst := make([]Record, dstLen)
	for {
		n := src.ReadBatch(dst)
		if n == 0 {
			return out
		}
		out = append(out, dst[:n]...)
	}
}

// TestReadAheadMatchesSource reads a stream through a ReadAhead at batch
// sizes from one record to more than the stream, with reads smaller
// than, equal to and larger than a batch, and record by record: every
// read must yield the source's records in order, and the goroutine must
// be gone after Close.
func TestReadAheadMatchesSource(t *testing.T) {
	recs := testRecords(10_000)
	baseline := runtime.NumGoroutine()
	for _, batch := range []int{1, 7, 4096, 20_000} {
		for _, dstLen := range []int{1, 5, batch, 2 * batch} {
			ra := NewReadAhead(NewSliceSource(recs), batch)
			got := drain(ra, dstLen)
			if ra.ReadBatch(make([]Record, 4)) != 0 {
				t.Errorf("batch %d: read after the end returned records", batch)
			}
			ra.Close()
			if !slices.Equal(got, recs) {
				t.Errorf("batch %d, reads of %d: got %d records, want the source's %d", batch, dstLen, len(got), len(recs))
			}
		}
		ra := NewReadAhead(NewSliceSource(recs), batch)
		var got []Record
		for {
			rec, ok := ra.Next()
			if !ok {
				break
			}
			got = append(got, rec)
		}
		ra.Close()
		if !slices.Equal(got, recs) {
			t.Errorf("batch %d: Next yielded %d records, want the source's %d", batch, len(got), len(recs))
		}
	}
	waitGoroutines(t, baseline)
}

// choppySource returns reads of the sizes in cuts, in turn, however long
// the destination, and logs each read's count.
type choppySource struct {
	recs  []Record
	cuts  []int
	reads []int
}

func (c *choppySource) Next() (Record, bool) { panic("choppySource: Next") }

func (c *choppySource) ReadBatch(dst []Record) int {
	cut := c.cuts[len(c.reads)%len(c.cuts)]
	n := copy(dst[:min(len(dst), cut)], c.recs)
	c.recs = c.recs[n:]
	c.reads = append(c.reads, n)
	return n
}

// TestReadAheadShortReads: a short read of the wrapped source reaches the
// consumer as a short read of its own, never joined with the next one,
// and only the end of the stream reads as 0.
func TestReadAheadShortReads(t *testing.T) {
	recs := testRecords(9_000)
	src := &choppySource{recs: recs, cuts: []int{3, 4096, 1, 17, 2000}}
	ra := NewReadAhead(src, 4096)
	var got []Record
	var reads []int
	dst := make([]Record, 4096)
	for {
		n := ra.ReadBatch(dst)
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
		reads = append(reads, n)
	}
	ra.Close() // the source's read log is the test's again
	if !slices.Equal(got, recs) {
		t.Fatalf("got %d records, want the source's %d", len(got), len(recs))
	}
	if want := src.reads[:len(src.reads)-1]; !slices.Equal(reads, want) {
		t.Errorf("read sizes %v, want the source's %v", reads, want)
	}
}

// TestReadAheadReaderErr: a varint stream cut inside a record yields the
// same records and the same decode error through a ReadAhead as read
// directly, with Err read after Close.
func TestReadAheadReaderErr(t *testing.T) {
	recs := testRecords(10_000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// A varint whose continuation bit is set and whose stream then ends.
	cut := append(buf.Bytes()[:buf.Len()-1:buf.Len()-1], 0x80)

	direct, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	want := drain(direct, 4096)
	if direct.Err() == nil {
		t.Fatal("the cut stream decoded without an error")
	}

	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReadAhead(r, 4096)
	got := drain(ra, 4096)
	ra.Close()
	if !slices.Equal(got, want) {
		t.Errorf("got %d records, want the %d read directly", len(got), len(want))
	}
	if r.Err() == nil || r.Err().Error() != direct.Err().Error() {
		t.Errorf("Err() = %v, want %v", r.Err(), direct.Err())
	}
}

// explodingSource yields records and panics with boom once after of
// them have been read.
type explodingSource struct {
	recs  []Record
	after int
	boom  error
}

func (e *explodingSource) Next() (Record, bool) { panic("explodingSource: Next") }

func (e *explodingSource) ReadBatch(dst []Record) int {
	if e.after == 0 {
		panic(e.boom)
	}
	n := copy(dst[:min(len(dst), e.after)], e.recs)
	e.recs, e.after = e.recs[n:], e.after-n
	return n
}

// TestReadAheadPanic: the consumer reads every record the source gave
// before it panicked, then its next read raises the source's panic value
// itself; Close then returns and the producer is gone.
func TestReadAheadPanic(t *testing.T) {
	recs := testRecords(10_000)
	boom := errors.New("source exploded")
	baseline := runtime.NumGoroutine()
	ra := NewReadAhead(&explodingSource{recs: recs, after: 5_000, boom: boom}, 4096)
	defer ra.Close()
	var got []Record
	dst := make([]Record, 4096)
	func() {
		defer func() {
			if p := recover(); p != boom {
				t.Errorf("consumer recovered %v, want the source's panic value", p)
			}
		}()
		for {
			n := ra.ReadBatch(dst)
			got = append(got, dst[:n]...)
			if n == 0 {
				t.Error("stream ended without the source's panic")
				return
			}
		}
	}()
	if !slices.Equal(got, recs[:5_000]) {
		t.Errorf("read %d records before the panic, want the 5000 the source gave", len(got))
	}
	ra.Close()
	waitGoroutines(t, baseline)
}

// endlessSource never ends.
type endlessSource struct{ n uint64 }

func (e *endlessSource) Next() (Record, bool) { panic("endlessSource: Next") }

func (e *endlessSource) ReadBatch(dst []Record) int {
	for i := range dst {
		e.n++
		dst[i] = Record{VPN: mem.VPN(e.n), Instrs: 1}
	}
	return len(dst)
}

// TestReadAheadCloseEarly: Close stops a producer that is ahead of a
// consumer which stopped reading mid-stream, and may be called twice.
func TestReadAheadCloseEarly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, reads := range []int{0, 1, 3} {
		ra := NewReadAhead(&endlessSource{}, 64)
		dst := make([]Record, 64)
		for i := 0; i < reads; i++ {
			if n := ra.ReadBatch(dst); n != 64 || dst[n-1].VPN != mem.VPN(64*(i+1)) {
				t.Fatalf("read %d: %d records ending at %#x", i, n, uint64(dst[n-1].VPN))
			}
		}
		ra.Close()
		ra.Close()
	}
	waitGoroutines(t, baseline)
}

func TestInMemory(t *testing.T) {
	recs := testRecords(10)
	var r Reader
	for _, c := range []struct {
		src  Source
		want bool
	}{
		{NewSliceSource(recs), true},
		{Limit(NewSliceSource(recs), 5), true},
		{&Bin{}, true},
		{&r, false},
		{Limit(&r, 5), false},
		{&endlessSource{}, false},
	} {
		if got := InMemory(c.src); got != c.want {
			t.Errorf("InMemory(%T) = %v, want %v", c.src, got, c.want)
		}
	}
}
