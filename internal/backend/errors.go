package backend

import (
	"context"
	"errors"
	"io"
	"net"

	"aggcache/internal/wire"
)

// ErrUnavailable is the typed availability error of the fault-tolerant
// backend path: the remote client returns it (wrapped) once its bounded
// redial/retry budget is exhausted, and the circuit breaker returns it
// immediately while open. Callers match it with errors.Is; core re-exports
// it as ErrBackendUnavailable so the middle tier can fail fast instead of
// hanging when the backend is down.
var ErrUnavailable = errors.New("backend unavailable")

// RemoteError is a failure a server reported for one request in a
// wire.FrameError reply, on any of the protocols an Exchange speaks. The
// connection is healthy and the server answered — the request itself is bad
// (unknown group-by, chunk out of range, a query that does not compile) or
// failed deterministically — so retrying the same request cannot help and
// the error is permanent, unless the server flagged the reply transient.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// transientError marks an error as worth retrying (see MarkTransient).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so IsTransient reports true for it. Fault
// injectors and the wire layer use it to tag connection-shaped failures.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient classifies an error as transient — a failure of the path to
// the backend (dropped connection, reset, I/O timeout) that a retry over a
// fresh connection may cure — as opposed to a permanent one (a RemoteError
// the engine computed, or the caller's own context expiring, which must
// never be retried against because the caller has already given up).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// The explicit transient mark wins over everything below it: the server
	// replies retryable failures (its own request timeout, a recovered
	// panic) as a RemoteError wrapped in the mark, and those must retry.
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	// A Busy reply is load shedding, not failure: the request is fine and a
	// retry after the server's hint may succeed, so it is transient by
	// definition — but the caller should honor BusyError.RetryAfter rather
	// than retrying immediately.
	var be *wire.BusyError
	if errors.As(err, &be) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// countsAsOutage reports whether an error should advance the circuit
// breaker toward open: transient wire failures, exhausted retry budgets and
// I/O deadline expiries all indicate the backend is unreachable, while
// permanent per-request errors and caller cancellation do not.
func countsAsOutage(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	// Busy replies never advance the breaker: the server answered — it is
	// overloaded, not unreachable — and tripping into degraded mode would
	// turn deliberate load shedding into a phantom outage.
	var be *wire.BusyError
	if errors.As(err, &be) {
		return false
	}
	return IsTransient(err) || errors.Is(err, ErrUnavailable) || errors.Is(err, context.DeadlineExceeded)
}
