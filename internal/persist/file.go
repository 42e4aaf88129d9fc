package persist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FileStore is a crash-atomic file-backed snapshot slot. A snapshot is
// staged in a temp file next to the target, fsynced, renamed over the
// target, and the directory is fsynced — the POSIX recipe that leaves
// either the old file or the new file after a crash at any instant,
// never a mix. A torn temp file (crash before the rename) is invisible
// to Open and cleaned up by the next Begin.
type FileStore struct {
	path string
}

// NewFileStore binds a store to the snapshot path. The parent directory
// must exist; the file itself need not (Open then reports
// ErrNoSnapshot).
func NewFileStore(path string) *FileStore {
	return &FileStore{path: path}
}

// tmpPath is the staging file. One fixed name keeps Begin idempotent
// after a crash: the next snapshot attempt truncates whatever torn
// remnant the last one left.
func (s *FileStore) tmpPath() string { return s.path + ".tmp" }

// Begin opens the staging file.
func (s *FileStore) Begin() (SnapshotWriter, error) {
	f, err := os.OpenFile(s.tmpPath(), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: stage snapshot: %w", err)
	}
	return &fileWriter{store: s, f: f}, nil
}

// Open returns the committed snapshot, or ErrNoSnapshot when the file
// does not exist.
func (s *FileStore) Open() (io.ReadCloser, error) {
	f, err := os.Open(s.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, s.path)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: open snapshot: %w", err)
	}
	return f, nil
}

// fileWriter stages one snapshot in the temp file.
type fileWriter struct {
	store *FileStore
	f     *os.File
	done  bool
}

func (w *fileWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

// Commit makes the staged snapshot the committed one: fsync the temp
// file (its bytes must be durable before the rename can point at them),
// rename over the target, fsync the directory (the rename itself must
// be durable).
func (w *fileWriter) Commit() error {
	if w.done {
		return errors.New("persist: snapshot writer already finished")
	}
	w.done = true
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("persist: fsync snapshot: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := os.Rename(w.store.tmpPath(), w.store.path); err != nil {
		return fmt.Errorf("persist: commit snapshot: %w", err)
	}
	return syncDir(filepath.Dir(w.store.path))
}

// Abort discards the staged bytes.
func (w *fileWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	_ = w.f.Close()
	if err := os.Remove(w.store.tmpPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: abort snapshot: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Some filesystems refuse to fsync directories; that is reported,
// not ignored — durability is the whole point of this package.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: fsync dir: %w", err)
	}
	return nil
}
