package core

import "fmt"

// LineError is one failed line of a batched operation: where it sat in
// the caller's batch, which data line it addressed, and the underlying
// error (which wraps the engine sentinels — ErrPoisoned, ErrAttack,
// ErrOutOfRange — as single-line operations do).
type LineError struct {
	// Index is the position in the batch's lines slice.
	Index int
	// Line is the data line address (global when the error came from an
	// Array, rank-local from a Memory).
	Line uint64
	// Err is the per-line failure.
	Err error
}

// Error implements error.
func (e LineError) Error() string {
	return fmt.Sprintf("batch index %d (line %d): %v", e.Index, e.Line, e.Err)
}

// Unwrap exposes the underlying per-line error to errors.Is/As.
func (e LineError) Unwrap() error { return e.Err }

// BatchError reports every line of a ReadBatch/WriteBatch that failed.
// Batches no longer abort at the first failure: all lines are
// attempted, the succeeded ones are committed/served, and the failures
// collect here so degraded-mode callers can retry or skip exactly the
// poisoned indices instead of losing the whole batch.
//
// BatchError unwraps to its per-line errors, so the sentinel idioms
// keep working unchanged: errors.Is(err, ErrPoisoned) is true iff some
// line failed poisoned, and IsFailClosed(err) is true iff some line
// failed closed.
type BatchError struct {
	// Failed lists the failing lines in ascending batch index order.
	Failed []LineError
}

// Error implements error.
func (e *BatchError) Error() string {
	if len(e.Failed) == 1 {
		return fmt.Sprintf("core: batch: 1 line failed: %v", e.Failed[0])
	}
	return fmt.Sprintf("core: batch: %d lines failed (first: %v)", len(e.Failed), e.Failed[0])
}

// Unwrap exposes each line's error to errors.Is/errors.As traversal.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for k := range e.Failed {
		errs[k] = e.Failed[k]
	}
	return errs
}

// add appends one failure, allocating the BatchError on first use (the
// success path carries a nil *BatchError and allocates nothing). Callers
// add in batch order, which keeps Failed ascending.
func (e *BatchError) add(index int, line uint64, err error) *BatchError {
	if e == nil {
		e = &BatchError{}
	}
	e.Failed = append(e.Failed, LineError{Index: index, Line: line, Err: err})
	return e
}

// orNil converts to the error interface without the typed-nil trap.
func (e *BatchError) orNil() error {
	if e == nil || len(e.Failed) == 0 {
		return nil
	}
	return e
}
