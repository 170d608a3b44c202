// Package wire provides SCBR's transport encoding: length-prefixed
// framing and the binary codec of the data frames.
//
// The paper uses ZeroMQ with Base64-encoded text messages; this
// package substitutes plain TCP (or any net.Conn, including net.Pipe
// in tests) with 4-byte little-endian length prefixes. What follows
// the prefix is one of two things, told apart by the first body byte:
//
//   - '{' — a control frame (attestation, provisioning, removal,
//     listen, acks, errors, peer handshake, digests): a JSON object
//     whose []byte fields are Base64 text, matching the paper's
//     on-the-wire text encoding;
//   - anything else — a data frame (publish, publish-batch, deliver,
//     fwd-pub, register-batch and its ack), the traffic that carries
//     ciphertext or scales with the event rate: a tag byte and the
//     frame type's fields in a fixed order, integers as uvarints, byte
//     strings as uvarint length + raw bytes (dataframe.go). This is
//     where the reproduction departs from the paper's text encoding:
//     ciphertext travels as bytes, not as Base64 inside JSON.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxFrame bounds a single frame; larger frames indicate corruption or
// abuse.
const MaxFrame = 16 << 20

// prefixLen is the size of the little-endian length prefix.
const prefixLen = 4

// readChunk bounds what a frame reader allocates ahead of the bytes it
// has received: the first chunk of a frame body is at most this large
// and the buffer doubles from there, so the length a peer claims costs
// it the bytes, not four of them.
const readChunk = 64 << 10

// ErrFrameTooLarge is returned for frames exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// BeginFrame appends the placeholder prefix of a frame whose body the
// caller appends next; EndFrame, given len(dst) from before the call,
// completes it. Building frames in place lets a sender put the prefix
// and the body — and any number of frames — into one buffer and one
// Write.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0)
}

// EndFrame patches the prefix of the frame begun at offset start with
// the length of the body appended since.
func EndFrame(dst []byte, start int) error {
	n := len(dst) - start - prefixLen
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return nil
}

// WriteFrame writes one length-prefixed frame — prefix and body in a
// single Write, so a frame is one syscall on a socket. (Senders on a
// hot path build their frames in place with BeginFrame / EndFrame
// instead, and save the copy.)
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := append(BeginFrame(make([]byte, 0, prefixLen+len(payload))), payload...)
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// prefixPool recycles the prefix scratch of the frame readers: handed
// to an io.Reader a local array escapes, one heap allocation per frame.
var prefixPool = sync.Pool{New: func() any { return new([prefixLen]byte) }}

// ReadFrame reads one length-prefixed frame into an allocation of its
// own.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameAppend(r, nil)
}

// ReadFrameAppend reads one length-prefixed frame into buf's capacity
// (growing it as needed) and returns the frame; the returned frame is
// only valid until the next call with the same buf. The buffer grows
// as body bytes arrive — never ahead of them by more than it already
// holds (readChunk at first) — so a header claiming MaxFrame pins
// nothing until the peer has sent the bytes. It reads exactly one
// frame from r, never past it.
func ReadFrameAppend(r io.Reader, buf []byte) ([]byte, error) {
	hdr := prefixPool.Get().(*[prefixLen]byte)
	_, err := io.ReadFull(r, hdr[:])
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	prefixPool.Put(hdr)
	if err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	buf = buf[:0]
	for len(buf) < n {
		have := len(buf)
		want := n
		if cap(buf) < n {
			// Not yet room for the whole body: take the next chunk only.
			if step := max(have, readChunk); want-have > step {
				want = have + step
			}
			if cap(buf) < want {
				grown := make([]byte, have, want)
				copy(grown, buf)
				buf = grown
			}
		}
		buf = buf[:want]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
	}
	return buf, nil
}
