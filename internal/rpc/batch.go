package rpc

import "fmt"

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
	r := NewReader(body)
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rpc: batch header: %w", err)
	}
	if n > batchMaxOps {
		return nil, fmt.Errorf("rpc: batch of %d ops exceeds limit %d", n, batchMaxOps)
	}
	subs := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		subs = append(subs, r.Blob())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rpc: batch body: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("rpc: %d trailing bytes after batch", r.Remaining())
	}
	return subs, nil
}
