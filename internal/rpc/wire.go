package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire is a tiny append-only encoder for RPC bodies. The zero value is an
// empty body.
type Wire struct {
	buf []byte
}

// Reset empties the encoder, keeping its buffer for the next body.
func (w *Wire) Reset() { w.buf = w.buf[:0] }

// Set replaces the body with b — Bytes() as an append-style encoder of
// another package extended it.
func (w *Wire) Set(b []byte) { w.buf = b }

// Bytes returns the encoded body.
func (w *Wire) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Wire) U8(v uint8) *Wire { w.buf = append(w.buf, v); return w }

// U32 appends a big-endian uint32.
func (w *Wire) U32(v uint32) *Wire { w.buf = binary.BigEndian.AppendUint32(w.buf, v); return w }

// U64 appends a big-endian uint64.
func (w *Wire) U64(v uint64) *Wire { w.buf = binary.BigEndian.AppendUint64(w.buf, v); return w }

// I64 appends a big-endian int64.
func (w *Wire) I64(v int64) *Wire { return w.U64(uint64(v)) }

// Str appends a length-prefixed string.
func (w *Wire) Str(s string) *Wire {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// Raw appends bytes as they are, with no length prefix.
func (w *Wire) Raw(b []byte) *Wire { w.buf = append(w.buf, b...); return w }

// Blob appends length-prefixed bytes.
func (w *Wire) Blob(b []byte) *Wire {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// BeginBlob opens a length-prefixed blob whose size is not known yet:
// it reserves the prefix and returns its offset for EndBlob. Nested
// encoders write straight into w between the two calls instead of
// building the blob in a buffer of their own.
func (w *Wire) BeginBlob() int {
	w.U32(0)
	return len(w.buf) - 4
}

// EndBlob closes the blob opened at off by patching its length prefix.
func (w *Wire) EndBlob(off int) {
	binary.BigEndian.PutUint32(w.buf[off:], uint32(len(w.buf)-off-4))
}

// PatchU32 overwrites the four bytes at off — a count or length written
// as a placeholder (BeginBlob reserves one) before its value was known.
func (w *Wire) PatchU32(off int, v uint32) {
	binary.BigEndian.PutUint32(w.buf[off:], v)
}

// ErrTruncated reports a short RPC body.
var ErrTruncated = errors.New("rpc: truncated body")

// Reader decodes RPC bodies written with Wire.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a body.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.buf))
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := int(r.U32())
	if r.err != nil || n > len(r.buf) {
		if r.err == nil {
			r.err = ErrTruncated
		}
		return ""
	}
	b := r.take(n)
	return string(b)
}

// Blob reads length-prefixed bytes.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	if r.err != nil || n > len(r.buf) {
		if r.err == nil {
			r.err = ErrTruncated
		}
		return nil
	}
	return r.take(n)
}

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }
