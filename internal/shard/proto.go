// Package shard holds the frame codec of the retired subprocess shard
// protocol: a 4-byte big-endian payload length followed by one
// JSON-encoded frame. The executor, journal and transports that spoke
// it are gone, grids run in-process on sched.Map, and nothing in the
// module imports this package; ROADMAP item 3 schedules its removal
// together with simerr.KindName and KindFromName.
//
// The prefix makes framing self-describing: a stream that carries
// anything else produces an implausible length or an unmarshalable
// payload, which the decoder reports as a typed protocol error rather
// than hanging or mis-parsing. Errors cross the stream as their simerr
// wire name plus message, so a budget overrun on the sending side
// decodes as simerr.ErrBudget, not a generic failure.
package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"mtcmos/internal/simerr"
)

// ErrProto marks a framing violation: an implausible length prefix,
// an oversized payload, or an unmarshalable body. It is distinct from
// plain I/O errors (EOF, reset) so callers and the fuzz harness can
// tell "the stream died" from "the stream carried garbage".
var ErrProto = errors.New("shard: protocol error")

// MaxFrame bounds a frame payload; the encoder and the decoder both
// enforce it. Anything larger is treated as a corrupted stream.
const MaxFrame = 64 << 20

// Frame types.
const (
	frameHello  = "hello"
	frameResult = "result"
)

// frame is one protocol message; unused fields are omitted on the
// wire.
type frame struct {
	Type  string            `json:"type"`
	Shard int               `json:"shard"`
	Items []json.RawMessage `json:"items,omitempty"`
	Err   *wireError        `json:"err,omitempty"`
}

// wireError carries a classified failure across the stream: the
// simerr kind's stable wire name plus the message.
type wireError struct {
	Kind string `json:"kind,omitempty"`
	Msg  string `json:"msg"`
}

// toWire encodes an error for the result frame.
func toWire(err error) *wireError {
	if err == nil {
		return nil
	}
	return &wireError{Kind: simerr.KindName(err), Msg: err.Error()}
}

// fromWire decodes a result-frame error back into a typed error: a
// known kind reconstitutes as a *simerr.Error of that kind, anything
// else classifies as an internal fault of the sender.
func (we *wireError) fromWire() error {
	if we == nil {
		return nil
	}
	if kind := simerr.KindFromName(we.Kind); kind != nil {
		return simerr.New(kind, "shard", we.Msg)
	}
	return simerr.New(simerr.ErrInternal, "shard", we.Msg)
}

// EncodeFrame writes one length-prefixed JSON frame carrying v. The
// MaxFrame cap is enforced on the way out too, so an oversized
// payload is a typed local error instead of a peer-side stream kill.
func EncodeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: refusing to write %d-byte frame (cap %d)", ErrProto, len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// DecodeFrame reads one length-prefixed JSON frame into v. A
// malformed length or payload is an ErrProto (corrupted or garbage
// stream), distinct from a clean EOF. Allocation is bounded by the
// bytes actually received, never by a hostile length prefix alone:
// the body is streamed into a growing buffer, so a claimed 64 MB
// frame backed by a 10-byte stream costs 10 bytes plus the copy
// chunk, not 64 MB.
func DecodeFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("%w: implausible frame length %d (corrupted stream)", ErrProto, n)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		return err
	}
	if err := json.Unmarshal(body.Bytes(), v); err != nil {
		return fmt.Errorf("%w: unmarshalable frame (corrupted stream): %v", ErrProto, err)
	}
	return nil
}

// frameWriter serializes frame writes from multiple goroutines and
// flushes per frame so the peer sees every message promptly.
type frameWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriter(w)}
}

func (fw *frameWriter) write(f *frame) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := EncodeFrame(fw.w, f); err != nil {
		return err
	}
	return fw.w.Flush()
}

// readFrame reads one protocol frame.
func readFrame(r io.Reader) (*frame, error) {
	var f frame
	if err := DecodeFrame(r, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
