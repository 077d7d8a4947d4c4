package rowbatch

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// rampPayload is record i's payload: i in the first four bytes, then a
// filler derived from i, 4 to 200 bytes long in total.
func rampPayload(i int) []byte {
	p := make([]byte, 4+(i*37)%197)
	binary.LittleEndian.PutUint32(p, uint32(i))
	for j := 4; j < len(p); j++ {
		p[j] = byte(i + j)
	}
	return p
}

// checkRampPayload reports whether p is an intact rampPayload, and its i.
func checkRampPayload(p []byte) (int, bool) {
	if len(p) < 4 {
		return 0, false
	}
	i := int(binary.LittleEndian.Uint32(p))
	return i, bytes.Equal(p, rampPayload(i))
}

// fillRamp appends chained rampPayload records to a default-size Set until
// it holds `full` batches of DefaultBatchSize, calling after (if non-nil)
// after every append. It returns the set and every record's pointer.
func fillRamp(t *testing.T, full int, after func(s *Set)) (*Set, []Ptr) {
	t.Helper()
	s := NewSet(0)
	var ptrs []Ptr
	prev := Nil
	for i := 0; ; i++ {
		p, err := s.Append(prev, rampPayload(i))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		ptrs = append(ptrs, p)
		prev = p
		if after != nil {
			after(s)
		}
		d := s.dir.Load()
		n := 0
		for _, b := range d.batches {
			if len(b.buf) == DefaultBatchSize {
				n++
			}
		}
		if n == full {
			return s, ptrs
		}
	}
}

func TestBatchCapacityRamp(t *testing.T) {
	s, _ := fillRamp(t, 3, nil)
	var want []int
	for size := firstBatchSize; size < DefaultBatchSize; size *= 2 {
		want = append(want, size)
	}
	want = append(want, DefaultBatchSize, DefaultBatchSize, DefaultBatchSize)
	d := s.dir.Load()
	if len(d.batches) != len(want) {
		t.Fatalf("%d batches, want %d", len(d.batches), len(want))
	}
	for i, b := range d.batches {
		if len(b.buf) != want[i] || cap(b.buf) != want[i] {
			t.Fatalf("batch %d: len %d cap %d, want %d", i, len(b.buf), cap(b.buf), want[i])
		}
	}
	if want[0] != 64<<10 {
		t.Fatalf("first batch %d B, want 64 KiB", want[0])
	}
}

// TestRampMemoryBound: reserved bytes stay within twice the data plus one
// first batch after every append. "Data" here includes the unused tails
// of sealed batches (each shorter than the record that did not fit), which
// the ramp's doubling counts as filled; the tails themselves stay under
// one record per batch.
func TestRampMemoryBound(t *testing.T) {
	const maxRec = recordHeader + 200
	fillRamp(t, 3, func(s *Set) {
		d := s.dir.Load()
		var tails int64
		for _, b := range d.batches[:len(d.batches)-1] {
			tails += int64(len(b.buf)) - b.used.Load()
		}
		if limit := 2*(s.DataBytes()+tails) + firstBatchSize; s.MemoryUsage() > limit {
			t.Fatalf("%d rows: reserved %d > 2*(data %d + tails %d) + %d",
				s.NumRows(), s.MemoryUsage(), s.DataBytes(), tails, firstBatchSize)
		}
		if tails >= int64(len(d.batches))*maxRec {
			t.Fatalf("sealed tails %d B over %d batches", tails, len(d.batches))
		}
	})
}

func TestPtrRoundTripAcrossRamp(t *testing.T) {
	s, ptrs := fillRamp(t, 2, nil)
	boundaries := 0
	for i, p := range ptrs {
		prev, payload, err := s.Read(p)
		if err != nil {
			t.Fatalf("Read(%v): %v", p, err)
		}
		if got, ok := checkRampPayload(payload); !ok || got != i {
			t.Fatalf("record %d at %v read back as %d (intact %v)", i, p, got, ok)
		}
		if i == 0 {
			continue
		}
		if prev != ptrs[i-1] {
			t.Fatalf("record %d prev = %v, want %v", i, prev, ptrs[i-1])
		}
		if p.Batch() != ptrs[i-1].Batch() {
			boundaries++
			if p.Batch() != ptrs[i-1].Batch()+1 || p.Offset() != 0 {
				t.Fatalf("record %d crosses from %v to %v", i, ptrs[i-1], p)
			}
		}
	}
	if boundaries != s.NumBatches()-1 {
		t.Fatalf("crossed %d boundaries over %d batches", boundaries, s.NumBatches())
	}
	// The chain from the newest record walks back across every boundary.
	i := len(ptrs) - 1
	if err := s.Chain(ptrs[i], func(p Ptr, payload []byte) bool {
		if got, ok := checkRampPayload(payload); !ok || got != i || p != ptrs[i] {
			t.Fatalf("chain step %v: record %d, want %d", p, got, i)
		}
		i--
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != -1 {
		t.Fatalf("chain stopped with %d records unvisited", i+1)
	}
}

// TestMaxRowAtRampBoundary: a MaxRowSize record that does not fit the
// current batch's remaining room opens the next ramp batch and lands
// intact; so do records of MaxRowSize from the first append on.
func TestMaxRowAtRampBoundary(t *testing.T) {
	big := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, MaxRowSize) }

	s := NewSet(0)
	var small []Ptr
	for s.DataBytes()+recordHeader+MaxRowSize <= firstBatchSize {
		p, err := s.Append(Nil, rampPayload(len(small)))
		if err != nil {
			t.Fatal(err)
		}
		small = append(small, p)
	}
	p, err := s.Append(Nil, big('x'))
	if err != nil {
		t.Fatal(err)
	}
	if p.Batch() != 1 || p.Offset() != 0 || p.Size() != MaxRowSize {
		t.Fatalf("max row at %v, want batch 1 offset 0", p)
	}
	if _, payload, err := s.Read(p); err != nil || !bytes.Equal(payload, big('x')) {
		t.Fatalf("max row read back wrong (err %v)", err)
	}
	for i, q := range small {
		if _, payload, err := s.Read(q); err != nil || !bytes.Equal(payload, rampPayload(i)) {
			t.Fatalf("small record %d disturbed (err %v)", i, err)
		}
	}

	s = NewSet(0)
	var ptrs []Ptr
	for i := 0; i < 40; i++ {
		p, err := s.Append(Nil, big(byte(i)))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if _, payload, err := s.Read(p); err != nil || !bytes.Equal(payload, big(byte(i))) {
			t.Fatalf("max row %d at %v read back wrong (err %v)", i, p, err)
		}
	}
	if s.NumBatches() < 4 {
		t.Fatalf("40 max rows fit %d batches; the ramp was not exercised", s.NumBatches())
	}
}

// TestConcurrentReadersDuringRamp: readers scan snapshots at the default
// batch size while a writer appends across several ramp boundaries; every
// snapshot is an intact, growing prefix of the append order.
func TestConcurrentReadersDuringRamp(t *testing.T) {
	s := NewSet(0)
	const rampBatches = 5 // 64 KiB .. 1 MiB
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		prev := Nil
		for i := 0; s.NumBatches() <= rampBatches; i++ {
			p, err := s.Append(prev, rampPayload(i))
			if err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			prev = p
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				finished := done.Load()
				marks := s.Watermarks()
				n := 0
				err := s.Scan(marks, func(p Ptr, payload []byte) bool {
					i, ok := checkRampPayload(payload)
					if !ok || i != n {
						t.Errorf("snapshot record %d at %v: got %d (intact %v)", n, p, i, ok)
						return false
					}
					n++
					return true
				})
				if err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if n < last {
					t.Errorf("snapshot went backwards: %d < %d", n, last)
					return
				}
				last = n
				if finished {
					if int64(n) != s.NumRows() {
						t.Errorf("final snapshot saw %d of %d rows", n, s.NumRows())
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.NumBatches() <= rampBatches {
		t.Fatalf("writer stopped at %d batches", s.NumBatches())
	}
}
