package wire

import "errors"

// Typed frame errors. The controller counts these separately from
// clean peer disconnects (io.EOF between frames): a peer that hangs
// up is routine churn, a peer that sends damaged frames is a bug or
// an attack, and conflating the two in metrics hides both.
var (
	// ErrFrameTooLarge reports a frame whose declared body exceeds
	// MaxFrame, on either the send or the receive side.
	ErrFrameTooLarge = errors.New("wire: frame exceeds max size")

	// ErrShortRead reports a connection that died, or went silent past
	// the idle deadline, in the middle of a frame: the header promised
	// more bytes than ever arrived.
	ErrShortRead = errors.New("wire: short read mid-frame")

	// ErrBadMagic reports a frame that does not start with the magic
	// byte 0xBA: the peer is not speaking this protocol at all (an old
	// JSON-framing peer lands here too).
	ErrBadMagic = errors.New("wire: bad frame magic")

	// ErrBadVersion reports a binary frame with an unsupported
	// protocol version byte.
	ErrBadVersion = errors.New("wire: unsupported protocol version")

	// ErrBadFrame reports a frame whose body failed to decode as the
	// type its header named.
	ErrBadFrame = errors.New("wire: malformed frame body")

	// ErrSendQueueFull reports a coalescing writer whose bounded queue
	// stayed full past the enqueue grace: the peer has stopped
	// draining. The error is sticky — the connection is considered
	// wedged and its owner should evict the peer.
	ErrSendQueueFull = errors.New("wire: send queue full (slow peer)")
)
