// Package persist defines the sealed snapshot format and the pluggable
// backing stores a Synergy array checkpoints to.
//
// A snapshot is a single versioned file of MAC-sealed sections:
//
//	header  := magic "SYNSNAP1" | version u32 | flags u32
//	section := id u32 | length u64 | payload | mac u64      (repeated)
//	footer  := id 0xFFFFFFFF | sha256[32] | total-length u64
//
// All integers are big-endian. Each section's 64-bit MAC is produced by
// a caller-supplied keyed factory (the engine binds it to its own MAC
// key with a domain-separated address outside the line-address space),
// so a snapshot can only be decoded by the array that owns the keys: a
// wrong key fails every section MAC exactly like a tampered payload.
// The unkeyed SHA-256 in the footer covers every byte before it and the
// recorded total length pins the file size, so the decoder can tell a
// torn tail (crash mid-write) from in-place corruption (bit rot or
// tampering) without any keys at all.
//
// The decode path is fail-closed by construction: every check runs
// before any section payload is handed back, and every failure maps to
// one of two typed sentinels —
//
//   - ErrSnapshotTorn: the file is not a complete write (short file,
//     missing footer, recorded length disagrees with actual length).
//     This is what a crash between the first byte and the atomic
//     rename looks like; the previous committed snapshot, if any, is
//     still intact.
//   - ErrSnapshotCorrupt: the file is complete but wrong (checksum
//     mismatch, malformed framing, a section MAC that does not verify
//     — including the wrong-key case).
//
// Stores are one snapshot slot with last-writer-wins semantics. The
// file backend writes crash-atomically: temp file in the same
// directory, fsync, rename over the target, fsync the directory — a
// crash at any instant leaves either the old snapshot or the new one,
// never a blend.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
)

// Magic opens every snapshot file.
const Magic = "SYNSNAP1"

// Version is the current format version.
const Version = 1

const (
	headerSize  = len(Magic) + 4 + 4 // magic | version | flags
	sectionHead = 4 + 8              // id | payload length
	macSize     = 8
	footerSize  = 4 + sha256.Size + 8 // sentinel id | sha256 | total length
	// footerID marks the footer pseudo-section; no real section may use it.
	footerID uint32 = 0xFFFFFFFF
	// maxSectionLen bounds one section so a corrupted length field cannot
	// drive a huge allocation before the checksum is consulted.
	maxSectionLen = 1 << 32
)

// Typed sentinels. Everything the decoder refuses wraps exactly one of
// these, so errors.Is classifies the failure through any decoration.
var (
	// ErrSnapshotCorrupt reports a complete but invalid snapshot:
	// checksum or section-MAC mismatch (bit flips, tampering, or decode
	// under the wrong keys), or malformed framing.
	ErrSnapshotCorrupt = errors.New("persist: snapshot corrupt (checksum or MAC verification failed)")
	// ErrSnapshotTorn reports an incomplete snapshot: the write never
	// finished (truncated tail, missing footer, length mismatch).
	ErrSnapshotTorn = errors.New("persist: snapshot torn (incomplete write)")
	// ErrNoSnapshot reports that the store holds no committed snapshot.
	ErrNoSnapshot = errors.New("persist: no snapshot in store")
)

// MACFactory returns a keyed 64-bit MAC bound to one section: id is the
// section's type and seq its position in the file. The binding makes
// sections non-relocatable — a valid section copied to another slot (or
// another id) fails its MAC.
type MACFactory func(id, seq uint32) hash.Hash64

// Store is one snapshot slot. Begin opens a new pending snapshot;
// nothing is visible to Open until the writer's Commit returns, and a
// Commit atomically replaces whatever was committed before.
// Implementations must guarantee that a crash mid-write (no Commit)
// leaves the previously committed snapshot readable.
type Store interface {
	// Begin starts writing a new snapshot. At most one pending writer
	// should be active at a time; the caller serializes.
	Begin() (SnapshotWriter, error)
	// Open returns the committed snapshot for reading, or ErrNoSnapshot.
	Open() (io.ReadCloser, error)
}

// SnapshotWriter receives one snapshot's bytes. Exactly one of Commit
// or Abort must be called; Commit publishes the bytes atomically, Abort
// discards them (the previously committed snapshot is untouched either
// way).
type SnapshotWriter interface {
	io.Writer
	Commit() error
	Abort() error
}

// Section is one decoded snapshot section.
type Section struct {
	ID      uint32
	Payload []byte
}

// Writer serializes sections into the snapshot format. Use NewWriter,
// WriteSection per section, then Close to emit the footer. The Writer
// does not commit the underlying store — the caller owns that.
type Writer struct {
	w    io.Writer
	mac  MACFactory
	sha  hash.Hash
	seq  uint32
	n    uint64
	done bool
}

// NewWriter starts a snapshot on w, emitting the header immediately.
func NewWriter(w io.Writer, mac MACFactory) (*Writer, error) {
	sw := &Writer{w: w, mac: mac, sha: sha256.New()}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	binary.BigEndian.PutUint32(hdr[len(Magic):], Version)
	// flags u32 stays zero in version 1.
	if err := sw.emit(hdr[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// emit writes p to the sink, the running checksum, and the byte count.
func (sw *Writer) emit(p []byte) error {
	if _, err := sw.w.Write(p); err != nil {
		return fmt.Errorf("persist: write: %w", err)
	}
	sw.sha.Write(p)
	sw.n += uint64(len(p))
	return nil
}

// WriteSection appends one sealed section. Sections are MACed over
// their payload under a (id, sequence) binding; order is part of the
// format.
func (sw *Writer) WriteSection(id uint32, payload []byte) error {
	if sw.done {
		return errors.New("persist: WriteSection after Close")
	}
	if id == footerID {
		return fmt.Errorf("persist: section id %#x is reserved for the footer", footerID)
	}
	var head [sectionHead]byte
	binary.BigEndian.PutUint32(head[:4], id)
	binary.BigEndian.PutUint64(head[4:], uint64(len(payload)))
	if err := sw.emit(head[:]); err != nil {
		return err
	}
	if err := sw.emit(payload); err != nil {
		return err
	}
	h := sw.mac(id, sw.seq)
	h.Write(payload)
	var tag [macSize]byte
	binary.BigEndian.PutUint64(tag[:], h.Sum64())
	if err := sw.emit(tag[:]); err != nil {
		return err
	}
	sw.seq++
	return nil
}

// Close seals the snapshot with the footer (checksum + total length).
// It does not close or commit the underlying writer.
func (sw *Writer) Close() error {
	if sw.done {
		return nil
	}
	sw.done = true
	var foot [footerSize]byte
	binary.BigEndian.PutUint32(foot[:4], footerID)
	// The checksum covers every byte before it, including the footer id.
	sw.sha.Write(foot[:4])
	sw.sha.Sum(foot[4:4])
	total := sw.n + footerSize
	binary.BigEndian.PutUint64(foot[4+sha256.Size:], total)
	if _, err := sw.w.Write(foot[:]); err != nil {
		return fmt.Errorf("persist: write footer: %w", err)
	}
	return nil
}

// Decode verifies and splits one snapshot image into its sections. The
// entire file is validated — length pin, checksum, framing, every
// section MAC — before any payload is returned; on error the returned
// sections are nil and err wraps ErrSnapshotTorn or ErrSnapshotCorrupt.
func Decode(data []byte, mac MACFactory) ([]Section, error) {
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than an empty snapshot", ErrSnapshotTorn, len(data))
	}
	foot := data[len(data)-footerSize:]
	if binary.BigEndian.Uint32(foot[:4]) != footerID {
		return nil, fmt.Errorf("%w: footer marker missing", ErrSnapshotTorn)
	}
	if total := binary.BigEndian.Uint64(foot[4+sha256.Size:]); total != uint64(len(data)) {
		return nil, fmt.Errorf("%w: footer records %d bytes, file holds %d", ErrSnapshotTorn, total, len(data))
	}
	// Complete write established; everything below is corruption.
	sum := sha256.Sum256(data[:len(data)-footerSize+4])
	if !bytes.Equal(sum[:], foot[4:4+sha256.Size]) {
		return nil, fmt.Errorf("%w: file checksum mismatch", ErrSnapshotCorrupt)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := binary.BigEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrSnapshotCorrupt, v)
	}
	body := data[headerSize : len(data)-footerSize]
	var sections []Section
	var seq uint32
	for len(body) > 0 {
		if len(body) < sectionHead {
			return nil, fmt.Errorf("%w: truncated section header", ErrSnapshotCorrupt)
		}
		id := binary.BigEndian.Uint32(body[:4])
		if id == footerID {
			return nil, fmt.Errorf("%w: footer marker inside body", ErrSnapshotCorrupt)
		}
		n := binary.BigEndian.Uint64(body[4:sectionHead])
		if n > maxSectionLen || uint64(len(body)-sectionHead) < n+macSize {
			return nil, fmt.Errorf("%w: section %#x claims %d bytes beyond the file", ErrSnapshotCorrupt, id, n)
		}
		payload := body[sectionHead : sectionHead+int(n)]
		tag := binary.BigEndian.Uint64(body[sectionHead+int(n) : sectionHead+int(n)+macSize])
		h := mac(id, seq)
		h.Write(payload)
		if h.Sum64() != tag {
			return nil, fmt.Errorf("%w: section %#x (seq %d) MAC mismatch", ErrSnapshotCorrupt, id, seq)
		}
		sections = append(sections, Section{ID: id, Payload: payload})
		body = body[sectionHead+int(n)+macSize:]
		seq++
	}
	return sections, nil
}

// ReadSnapshot opens the store's committed snapshot and decodes it.
func ReadSnapshot(store Store, mac MACFactory) ([]Section, error) {
	rc, err := store.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, fmt.Errorf("%w: reading snapshot: %v", ErrSnapshotTorn, err)
	}
	return Decode(data, mac)
}

// WriteSnapshot serializes sections into a new snapshot on the store
// and commits it; on any failure the pending write is aborted and the
// previously committed snapshot is untouched.
func WriteSnapshot(store Store, mac MACFactory, sections []Section) (err error) {
	pw, err := store.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = pw.Abort()
		}
	}()
	sw, err := NewWriter(pw, mac)
	if err != nil {
		return err
	}
	for _, s := range sections {
		if err = sw.WriteSection(s.ID, s.Payload); err != nil {
			return err
		}
	}
	if err = sw.Close(); err != nil {
		return err
	}
	return pw.Commit()
}
