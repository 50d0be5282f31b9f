package trace

import "sync"

// ReadAhead is a BatchSource that reads a wrapped source one batch ahead
// of its consumer, on a producer goroutine, so generating or decoding
// the next batch overlaps whatever the consumer does with the current
// one. It yields the wrapped source's records in order, and no read
// returns records from two of the source's batches, so a short read
// stays short; it returns 0 only once the source's stream has ended.
//
// A panic in the wrapped source's ReadBatch is recovered on the producer
// and raised again, with the same value, by the consumer's first read
// past the records read before it.
//
// The producer owns the wrapped source until Close returns: read nothing
// the source updates, such as Reader.Err, before then.
//
// One buffer passes back and forth: the producer fills it with the next
// batch while the consumer works on the current one, which ReadBatch has
// already copied out. A second buffer would let the producer run two
// batches ahead, which helps only where the two sides' times per batch
// vary, and would cost another batch of memory.
type ReadAhead struct {
	// full carries the filled buffer to the consumer; the producer
	// closes it when the stream ends. free carries it back once drained.
	// Each holds the one buffer at most, so a slot of one means neither
	// side's send ever waits.
	full, free chan []Record
	stop       chan struct{} // closed by Close
	done       chan struct{} // closed when the producer has exited
	once       sync.Once

	// panicked is what the source panicked with; the producer writes it
	// before it closes full.
	panicked any

	// cur is the unread rest of the batch being consumed, and buf the
	// whole buffer.
	cur, buf []Record
}

// NewReadAhead starts reading src in batches of up to batch records.
// The caller must Close the result.
func NewReadAhead(src BatchSource, batch int) *ReadAhead {
	r := &ReadAhead{
		full: make(chan []Record, 1),
		free: make(chan []Record, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.free <- make([]Record, batch)
	go r.produce(src)
	return r
}

// produce fills the buffer from src and sends it, each time the consumer
// hands it back, until the stream ends, the source panics or Close stops
// it.
func (r *ReadAhead) produce(src BatchSource) {
	defer close(r.done)
	defer close(r.full)
	defer func() { r.panicked = recover() }()
	for {
		var buf []Record
		select {
		case buf = <-r.free:
		case <-r.stop:
			return
		}
		n := src.ReadBatch(buf)
		if n == 0 {
			return
		}
		select {
		case r.full <- buf[:n]:
		case <-r.stop:
			return
		}
	}
}

// ReadBatch implements BatchSource.
func (r *ReadAhead) ReadBatch(dst []Record) int {
	if len(dst) == 0 {
		return 0
	}
	if len(r.cur) == 0 {
		b, ok := <-r.full
		if !ok {
			if r.panicked != nil {
				panic(r.panicked)
			}
			return 0
		}
		r.cur, r.buf = b, b
	}
	n := copy(dst, r.cur)
	r.cur = r.cur[n:]
	if len(r.cur) == 0 {
		r.free <- r.buf[:cap(r.buf)]
	}
	return n
}

// Next implements Source.
func (r *ReadAhead) Next() (Record, bool) {
	var rec [1]Record
	if r.ReadBatch(rec[:]) == 0 {
		return Record{}, false
	}
	return rec[0], true
}

// Close stops the producer and returns once it has exited; the wrapped
// source is then the caller's again. It may be called more than once.
func (r *ReadAhead) Close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// InMemory reports whether src replays records already in memory (a
// SliceSource or a Bin, or a Limit over one), which a ReadAhead would
// only copy.
func InMemory(src Source) bool {
	switch s := src.(type) {
	case *SliceSource, *Bin:
		return true
	case *limitSource:
		return InMemory(s.src)
	}
	return false
}
