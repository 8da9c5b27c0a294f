package lease

import (
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// Grant trailers ride at the tail of ordinary response bodies:
// U32 count, then (U64 dir, U64 id, U64 epoch, U32 ttl-ms) per grant.
// Decoders written before the trailer existed ignore trailing bytes,
// so appending it is wire-compatible in both directions: an old client
// skips it, and a missing trailer decodes as no grants.

// grantSize is one grant's bytes on the wire.
const grantSize = 8 + 8 + 8 + 4

// AppendGrants writes the grant trailer onto w.
func AppendGrants(w *rpc.Wire, grants []Grant) {
	w.U32(uint32(len(grants)))
	for _, g := range grants {
		w.U64(uint64(g.Dir)).U64(g.ID).U64(g.Epoch).U32(g.TTLms)
	}
}

// DecodeGrants reads a grant trailer from r's current position, appending
// the grants to dst. A response with no trailer (or one from an error
// path) yields dst as it came.
func DecodeGrants(r *rpc.Reader, dst []Grant) []Grant {
	if r.Err() != nil || r.Remaining() == 0 {
		return dst
	}
	n := int(r.U32())
	if r.Err() != nil || n > 4096 || n*grantSize > r.Remaining() {
		return dst // no room for n grants: allocate nothing for them
	}
	grants := dst
	for i := 0; i < n; i++ {
		g := Grant{}
		g.Dir = namespace.Ino(r.U64())
		g.ID = r.U64()
		g.Epoch = r.U64()
		g.TTLms = r.U32()
		grants = append(grants, g)
	}
	if r.Err() != nil {
		return dst
	}
	return grants
}
