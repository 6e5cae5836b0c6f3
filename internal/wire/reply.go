package wire

import (
	"errors"
	"fmt"
	"time"
)

// The two reply types every protocol on this framing layer shares, and the
// flag bit they carry. Their type values are reserved across the backend,
// peer and query protocols, like the frame header itself.
const (
	// FlagTransient marks a failure reply as retryable (the server did not
	// answer deterministically — a timeout, a recovered panic, an outage
	// behind it), as opposed to a permanent per-request rejection.
	FlagTransient uint8 = 1 << 0

	// FrameBusy is the 429-equivalent reply: the server is refusing the
	// request *before* doing any work on it — admission queue full,
	// deadline unmeetable, quota exhausted. The payload carries a
	// retry-after hint and a shed reason:
	//
	//	retry_after_ms u32 | reason str
	//
	// Busy frames always carry FlagTransient: the request itself is fine
	// and a retry after the hint may succeed, so clients route it through
	// the PR-3 taxonomy (IsTransient=true) and back off instead of
	// hammering a server that is already drowning.
	FrameBusy uint8 = 0xB9

	// FrameError is the failure reply: the server took the request and
	// could not answer it. The payload is the message (msg str);
	// FlagTransient separates a retryable failure from a permanent one.
	FrameError uint8 = 0xE0
)

// BusyError is the client-side form of a FrameBusy reply. It is transient by
// construction — backend.IsTransient reports true for it — and carries the
// server's retry-after hint so backoff loops can wait at least that long.
type BusyError struct {
	// RetryAfter is the server's hint: how long to wait before retrying.
	RetryAfter time.Duration
	// Reason is the shed cause ("queue_full", "deadline", "expired",
	// "quota"), for logs and metrics.
	Reason string
}

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy (%s), retry after %v", e.Reason, e.RetryAfter)
}

// AsBusy extracts a BusyError from an error chain.
func AsBusy(err error) (*BusyError, bool) {
	var be *BusyError
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}

// BusyFrame builds a FrameBusy reply with the transient flag set.
func BusyFrame(retryAfter time.Duration, reason string) Frame {
	p := AppendU32(nil, uint32(retryAfter.Milliseconds()))
	p = AppendString(p, reason)
	return Frame{Type: FrameBusy, Flags: FlagTransient, Payload: p}
}

// DecodeBusy parses a FrameBusy payload into the error it represents. A
// malformed payload still yields a usable BusyError (zero hint), because a
// busy server's reply must never be escalated into a connection teardown.
func DecodeBusy(p []byte) *BusyError {
	d := NewDec(p)
	ms := d.U32()
	reason := d.String()
	if d.Err() != nil {
		return &BusyError{}
	}
	return &BusyError{RetryAfter: time.Duration(ms) * time.Millisecond, Reason: reason}
}

// ErrorFrame builds a FrameError reply carrying msg, flagged transient when
// a retry may succeed.
func ErrorFrame(msg string, transient bool) Frame {
	fr := Frame{Type: FrameError, Payload: AppendString(nil, msg)}
	if transient {
		fr.Flags = FlagTransient
	}
	return fr
}

// DecodeError returns the message of a FrameError payload. Like a Busy
// reply, a malformed one still reads as a failure, never as a teardown.
func DecodeError(p []byte) string {
	d := NewDec(p)
	msg := d.String()
	if d.Err() != nil {
		return "unreadable error payload"
	}
	return msg
}
