package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hybridtlb/internal/mem"
)

func TestSliceSource(t *testing.T) {
	recs := []Record{{VPN: 1, Instrs: 3}, {VPN: 2, Instrs: 4, Write: true}}
	s := NewSliceSource(recs)
	for i, want := range recs {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("record %d = %+v, %v", i, got, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("source not exhausted")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != recs[0] {
		t.Error("reset failed")
	}
}

func TestLimit(t *testing.T) {
	recs := make([]Record, 10)
	src := Limit(NewSliceSource(recs), 3)
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("limited source yielded %d records, want 3", n)
	}
}

func TestCollect(t *testing.T) {
	recs := make([]Record, 10)
	for i := range recs {
		recs[i].VPN = mem.VPN(i)
	}
	got := Collect(NewSliceSource(recs), 4)
	if len(got) != 4 || got[3].VPN != 3 {
		t.Errorf("Collect(4) = %d records", len(got))
	}
	got = Collect(NewSliceSource(recs), 0)
	if len(got) != 10 {
		t.Errorf("Collect(0) = %d records, want all 10", len(got))
	}
	// A limit past the end stops at the end, and a source without a
	// native ReadBatch collects the same records.
	if got = Collect(NewSliceSource(recs), 20); !reflect.DeepEqual(got, recs) {
		t.Errorf("Collect(20) = %d records, want all 10", len(got))
	}
	if got = Collect(nextOnly{NewSliceSource(recs)}, 0); !reflect.DeepEqual(got, recs) {
		t.Errorf("Collect of a Next-only source = %d records, want all 10", len(got))
	}
}

// nextOnly hides a source's ReadBatch.
type nextOnly struct{ src Source }

func (s nextOnly) Next() (Record, bool) { return s.src.Next() }

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := make([]Record, 5000)
	vpn := mem.VPN(1 << 30)
	for i := range recs {
		vpn += mem.VPN(r.Intn(100)) - 50 // mixed forward/backward deltas
		recs[i] = Record{VPN: vpn, Instrs: uint32(r.Intn(1000)), Write: r.Intn(2) == 0}
	}
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
	if w.Count() != 5000 {
		t.Errorf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, ok := rd.Next()
		if !ok {
			t.Fatalf("stream ended at record %d: %v", i, rd.Err())
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := rd.Next(); ok {
		t.Error("stream longer than written")
	}
	if rd.Err() != nil {
		t.Errorf("clean EOF reported error: %v", rd.Err())
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(vpns []uint32, instrs []uint16) bool {
		n := len(vpns)
		if len(instrs) < n {
			n = len(instrs)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{VPN: mem.VPN(vpns[i]), Instrs: uint32(instrs[i]), Write: i%3 == 0}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, rec := range recs {
			if w.Write(rec) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range recs {
			got, ok := rd.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := rd.Next()
		return !ok && rd.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(strings.NewReader("HT")); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Write(Record{VPN: 123456, Instrs: 7})
	_ = w.Flush()
	data := buf.Bytes()[:buf.Len()-1] // chop the last byte
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.Next(); ok {
		t.Error("truncated record decoded")
	}
	if rd.Err() == nil {
		t.Error("truncation not reported")
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	rec := Record{VPN: 0x123456, Instrs: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.VPN++
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<24 {
			buf.Reset()
		}
	}
}

func TestAnalyzeBasics(t *testing.T) {
	// Sequence: A B A  C B A — reuse distances: A:1 (B between), B:1 (A),
	// A:2 (C,B between).
	recs := []Record{
		{VPN: 1, Instrs: 4}, {VPN: 2, Instrs: 4}, {VPN: 1, Instrs: 4, Write: true},
		{VPN: 3, Instrs: 4}, {VPN: 2, Instrs: 4}, {VPN: 1, Instrs: 4},
	}
	a := Analyze(NewSliceSource(recs))
	if a.Records != 6 || a.Instructions != 24 || a.Writes != 1 {
		t.Fatalf("basics: %+v", a)
	}
	if a.DistinctPages != 3 || a.ColdAccesses != 3 {
		t.Fatalf("footprint: %+v", a)
	}
	// Distances: 1, 2, 2 -> bucket 0 (<2): 1, bucket 1 (2-3): 2.
	if a.ReuseBuckets[0] != 1 || a.ReuseBuckets[1] != 2 {
		t.Errorf("buckets = %v", a.ReuseBuckets[:4])
	}
}

func TestAnalyzeStreamingVsRandom(t *testing.T) {
	// Streaming with immediate repeats has tiny distances; uniform random
	// over a large footprint has large ones.
	var stream []Record
	for i := 0; i < 3000; i++ {
		stream = append(stream, Record{VPN: mem.VPN(i / 3), Instrs: 1})
	}
	sa := Analyze(NewSliceSource(stream))
	if sa.ReuseBuckets[0] != 2000 {
		t.Errorf("stream short-distance accesses = %d, want 2000", sa.ReuseBuckets[0])
	}

	r := rand.New(rand.NewSource(1))
	var random []Record
	for i := 0; i < 30000; i++ {
		random = append(random, Record{VPN: mem.VPN(r.Intn(1 << 13)), Instrs: 1})
	}
	ra := Analyze(NewSliceSource(random))
	var shortAcc, longAcc uint64
	for i, n := range ra.ReuseBuckets {
		if i <= 6 {
			shortAcc += n
		} else {
			longAcc += n
		}
	}
	if longAcc < shortAcc {
		t.Errorf("random trace skewed short: %d short vs %d long", shortAcc, longAcc)
	}
}

func TestBucketLabels(t *testing.T) {
	if BucketLabel(0) != "<2" || BucketLabel(1) != "2-3" || BucketLabel(17) != ">=128K" {
		t.Error("labels wrong")
	}
	if bucketOf(0) != 0 || bucketOf(1) != 0 || bucketOf(2) != 1 || bucketOf(1024) != 10 {
		t.Error("bucketing wrong")
	}
}

func TestAnalyzeWriteTo(t *testing.T) {
	recs := []Record{{VPN: 1}, {VPN: 2}, {VPN: 1}}
	var buf bytes.Buffer
	Analyze(NewSliceSource(recs)).Print(&buf)
	for _, want := range []string{"records", "distinct pages", "reuse-distance"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
