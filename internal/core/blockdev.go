package core

import (
	"errors"
	"fmt"
	"io"
)

// Device adapts a Synergy Store (Memory or Array) to byte-granular
// io.ReaderAt / io.WriterAt, so the secure memory can back anything
// that speaks block I/O. Unaligned writes are read-modify-write at
// cacheline granularity (with full integrity verification on the read
// half, as the hardware would do).
//
// When the store is a BatchStore (Memory and Array both are), aligned
// multi-line spans move through ReadBatch/WriteBatch: one call per
// span (writes take one lock acquisition per rank it touches) instead
// of one call per line. Device is as safe for concurrent use as its store; concurrent
// WriteAt calls to overlapping byte ranges have no defined order.
type Device struct {
	store Store
	batch BatchStore // non-nil when store supports batched I/O
	lines uint64
}

// NewDevice wraps a store exposing `lines` cachelines of capacity.
func NewDevice(store Store, lines uint64) (*Device, error) {
	if store == nil || lines == 0 {
		return nil, errors.New("core: NewDevice needs a store and capacity")
	}
	d := &Device{store: store, lines: lines}
	if bs, ok := store.(BatchStore); ok {
		d.batch = bs
	}
	return d, nil
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(d.lines) * LineSize }

// span returns the line indices [first, first+n) as a slice, for a
// batched call covering n full lines.
func span(first uint64, n int) []uint64 {
	lines := make([]uint64, n)
	for k := range lines {
		lines[k] = first + uint64(k)
	}
	return lines
}

// ReadAt implements io.ReaderAt. A short read at end-of-device returns
// io.EOF per the contract; any integrity failure surfaces as ErrAttack.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("core: negative offset")
	}
	n := 0
	var line [LineSize]byte
	for n < len(p) {
		pos := off + int64(n)
		if pos >= d.Size() {
			return n, io.EOF
		}
		idx := uint64(pos) / LineSize
		within := int(uint64(pos) % LineSize)
		if d.batch != nil && within == 0 && len(p)-n >= LineSize {
			// Aligned full-line span: one batched call for every whole
			// line remaining (clamped to the device end).
			count := (len(p) - n) / LineSize
			if avail := int(d.lines - idx); count > avail {
				count = avail
			}
			if _, err := d.batch.ReadBatch(span(idx, count), p[n:n+count*LineSize]); err != nil {
				return n, fmt.Errorf("core: device read lines %d..%d: %w", idx, idx+uint64(count)-1, err)
			}
			n += count * LineSize
			continue
		}
		if _, err := d.store.Read(idx, line[:]); err != nil {
			return n, fmt.Errorf("core: device read line %d: %w", idx, err)
		}
		n += copy(p[n:], line[within:])
	}
	return n, nil
}

// WriteAt implements io.WriterAt. Partial-line writes read, verify,
// merge and re-encrypt the full line.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("core: negative offset")
	}
	n := 0
	var line [LineSize]byte
	for n < len(p) {
		pos := off + int64(n)
		if pos >= d.Size() {
			return n, errors.New("core: write past end of device")
		}
		idx := uint64(pos) / LineSize
		within := int(uint64(pos) % LineSize)
		if within == 0 && len(p)-n >= LineSize {
			if d.batch != nil {
				// Aligned full-line span, batched like ReadAt. The span
				// is a strictly increasing line range, so the distinct-
				// lines requirement of WriteBatch holds.
				count := (len(p) - n) / LineSize
				if avail := int(d.lines - idx); count > avail {
					count = avail
				}
				if err := d.batch.WriteBatch(span(idx, count), p[n:n+count*LineSize]); err != nil {
					return n, fmt.Errorf("core: device write lines %d..%d: %w", idx, idx+uint64(count)-1, err)
				}
				n += count * LineSize
				continue
			}
			// Full-line fast path.
			if err := d.store.Write(idx, p[n:n+LineSize]); err != nil {
				return n, fmt.Errorf("core: device write line %d: %w", idx, err)
			}
			n += LineSize
			continue
		}
		if _, err := d.store.Read(idx, line[:]); err != nil {
			return n, fmt.Errorf("core: device rmw read line %d: %w", idx, err)
		}
		k := copy(line[within:], p[n:])
		if err := d.store.Write(idx, line[:]); err != nil {
			return n, fmt.Errorf("core: device rmw write line %d: %w", idx, err)
		}
		n += k
	}
	return n, nil
}

var (
	_ io.ReaderAt = (*Device)(nil)
	_ io.WriterAt = (*Device)(nil)
)
