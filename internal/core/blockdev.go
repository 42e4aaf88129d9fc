package core

import (
	"errors"
	"fmt"
	"io"
)

// Device adapts an Array to byte-granular io.ReaderAt / io.WriterAt, so
// the secure memory can back anything that speaks block I/O. Every line
// moves with one Array.Read or Array.Write;
// unaligned writes are read-modify-write at cacheline granularity (with
// full integrity verification on the read half, as the hardware would
// do). A failure stops the transfer at the failing line: the returned
// count is the bytes before it, and no later line is touched.
//
// Device is safe for concurrent use, as its Array is; concurrent
// WriteAt calls to overlapping byte ranges have no defined order.
type Device struct {
	a *Array
}

// NewDevice wraps a as a device of a.DataLines() cachelines.
func NewDevice(a *Array) (*Device, error) {
	if a == nil {
		return nil, errors.New("core: NewDevice needs an array")
	}
	return &Device{a: a}, nil
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(d.a.DataLines()) * LineSize }

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
		if _, err := d.a.Read(idx, line[:]); err != nil {
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
			if err := d.a.Write(idx, p[n:n+LineSize]); err != nil {
				return n, fmt.Errorf("core: device write line %d: %w", idx, err)
			}
			n += LineSize
			continue
		}
		if _, err := d.a.Read(idx, line[:]); err != nil {
			return n, fmt.Errorf("core: device rmw read line %d: %w", idx, err)
		}
		k := copy(line[within:], p[n:])
		if err := d.a.Write(idx, line[:]); err != nil {
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
