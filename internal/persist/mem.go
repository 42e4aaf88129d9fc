package persist

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// MemStore is an in-memory snapshot slot with the same commit semantics
// as FileStore: bytes written through a pending writer become visible
// to Open only when Commit runs, atomically replacing the previous
// snapshot. It backs tests and the chaos harness's injecting wrappers,
// and doubles as the reference implementation of the Store contract.
type MemStore struct {
	mu        sync.Mutex
	committed []byte
	has       bool
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{} }

// Begin starts a pending snapshot.
func (s *MemStore) Begin() (SnapshotWriter, error) {
	return &memWriter{store: s, buf: &bytes.Buffer{}}, nil
}

// Open returns the committed snapshot, or ErrNoSnapshot.
func (s *MemStore) Open() (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return nil, fmt.Errorf("%w: empty MemStore", ErrNoSnapshot)
	}
	// Copy so a caller-side mutation (the chaos tamperer uses Bytes for
	// that, explicitly) cannot race a concurrent reader.
	cp := make([]byte, len(s.committed))
	copy(cp, s.committed)
	return io.NopCloser(bytes.NewReader(cp)), nil
}

// Bytes returns a copy of the committed snapshot image and whether one
// exists — the hook tamper tests use to corrupt a committed snapshot.
func (s *MemStore) Bytes() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return nil, false
	}
	cp := make([]byte, len(s.committed))
	copy(cp, s.committed)
	return cp, true
}

// SetBytes replaces the committed snapshot image wholesale (tamper
// injection: bit flips, truncation, stale content).
func (s *MemStore) SetBytes(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.committed = append([]byte(nil), b...)
	s.has = true
}

type memWriter struct {
	store *MemStore
	buf   *bytes.Buffer
	done  bool
}

func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *memWriter) Commit() error {
	if w.done {
		return fmt.Errorf("persist: snapshot writer already finished")
	}
	w.done = true
	w.store.SetBytes(w.buf.Bytes())
	return nil
}

func (w *memWriter) Abort() error {
	w.done = true
	return nil
}
