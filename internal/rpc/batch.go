package rpc

import (
	"fmt"
	"slices"
)

// Multi-op batch framing: one RPC frame carrying several independent
// sub-operations. The envelope is deliberately dumb — a count followed
// by length-prefixed opaque sub-bodies — so any service can batch its
// own method vocabulary without the transport knowing op semantics.
// The MDS batch method (client-side pipelined submission) rides this.

// batchMaxOps bounds a decoded batch so a corrupt count cannot balloon
// an allocation. Generous against any real client window.
const batchMaxOps = 1 << 16

// EncodeBatch frames the sub-bodies into one batch envelope.
func EncodeBatch(subs [][]byte) []byte {
	w := &Wire{}
	AppendBatch(w, subs)
	return w.Bytes()
}

// AppendBatch writes the batch envelope of subs onto w.
func AppendBatch(w *Wire, subs [][]byte) {
	w.U32(uint32(len(subs)))
	for _, s := range subs {
		w.Blob(s)
	}
}

// DecodeBatch splits a batch envelope back into its sub-bodies.
func DecodeBatch(body []byte) ([][]byte, error) {
	return DecodeBatchInto(nil, body)
}

// DecodeBatchInto is DecodeBatch appending the sub-bodies (which alias
// body) to dst, so a frame of a few ops decodes into the caller's array.
func DecodeBatchInto(dst [][]byte, body []byte) ([][]byte, error) {
	r := NewReader(body)
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rpc: batch header: %w", err)
	}
	if n > batchMaxOps {
		return nil, fmt.Errorf("rpc: batch of %d ops exceeds limit %d", n, batchMaxOps)
	}
	if int(n) > r.Remaining()/4 { // every sub-body costs its length prefix
		return nil, fmt.Errorf("rpc: batch body: %w", ErrTruncated)
	}
	dst = slices.Grow(dst, int(n))
	for i := uint32(0); i < n; i++ {
		dst = append(dst, r.Blob())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rpc: batch body: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("rpc: %d trailing bytes after batch", r.Remaining())
	}
	return dst, nil
}
