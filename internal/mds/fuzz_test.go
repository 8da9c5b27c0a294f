package mds

import (
	"bytes"
	"strings"
	"testing"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// fuzzFrames are well-formed MethodBatch request bodies, built with the
// public encoders, that seed the decoder fuzzers.
func fuzzFrames() [][]byte {
	root := namespace.RootIno
	moved := &namespace.Inode{Ino: 77, Parent: root, Name: "moved", Type: namespace.TypeFile, Nlink: 1}
	return [][]byte{
		EncodeBatchRequest(1, [][]byte{EncodeBatchCreate(1, root, "f", namespace.TypeFile)}),
		EncodeBatchRequest(1, [][]byte{
			EncodeBatchCreate(2, root, "d", namespace.TypeDir),
			EncodeBatchCreate(3, root, "g", namespace.TypeFile),
			EncodeBatchRename(4, root, "g", root, "h"),
			EncodeBatchSetattr(5, 2, 4096, 0o600),
			EncodeBatchRemove(6, root, "h"),
			EncodeBatchInsert(7, moved),
		}),
		EncodeBatchRequest(0, [][]byte{EncodeBatchRemove(1, root, "missing"), {0, 0, 0, 0, 0, 0, 0, 9, 42}}),
		EncodeBatchRequest(0, nil),
	}
}

// FuzzBatchFrame feeds arbitrary bytes to the one mutation decoder: the
// handler must never panic, and must either reject the whole frame with
// EINVAL or answer every sub-op of it.
func FuzzBatchFrame(f *testing.F) {
	for _, frame := range fuzzFrames() {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	store, err := OpenStore(f.TempDir(), 0, kvstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	s := NewService(0, store, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := callCtx(s.handleBatch, body)
		if err != nil {
			if !strings.HasPrefix(err.Error(), CodeInvalid) {
				t.Fatalf("frame rejected with %v, want %s", err, CodeInvalid)
			}
			return
		}
		// Accepted: the envelope parsed, so count its sub-ops the way the
		// handler did and demand one verdict each.
		r := rpc.NewReader(body)
		r.U64()
		subs, err := rpc.DecodeBatch(r.Blob())
		if err != nil {
			t.Fatalf("handler accepted a frame whose envelope does not decode: %v", err)
		}
		res, _, err := DecodeBatchResponse(resp)
		if err != nil {
			t.Fatalf("response does not decode: %v", err)
		}
		if len(res) != len(subs) {
			t.Fatalf("%d verdicts for %d sub-ops", len(res), len(subs))
		}
	})
}

// FuzzDecodeBatchResponse feeds arbitrary bytes to the SDK-side decoder
// of MethodBatch responses, which must fail cleanly, never panic.
func FuzzDecodeBatchResponse(f *testing.F) {
	store, err := OpenStore(f.TempDir(), 0, kvstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	s := NewService(0, store, nil)
	for _, frame := range fuzzFrames() {
		if resp, err := callCtx(s.handleBatch, frame); err == nil {
			f.Add(resp)
			f.Add(resp[:len(resp)/2])
		}
	}
	store.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		res, _, err := DecodeBatchResponse(body)
		if err != nil {
			return
		}
		for _, r := range res {
			if r.Err != nil && r.Inode != nil {
				t.Fatalf("result carries both an error and an inode: %+v", r)
			}
		}
	})
}

// FuzzDecodeMap feeds arbitrary bytes to the partition-map decoder, which
// reads SetMap frames, GetMap responses and the pin map persisted on
// disk. It must never panic, never decode more pins than the body has
// bytes for, and every body it accepts must be exactly what EncodeMap
// writes for the decoded map.
func FuzzDecodeMap(f *testing.F) {
	for _, pins := range [][]PinEntry{nil, {{Ino: 5, MDS: 2}}, {{Ino: 1, MDS: 0}, {Ino: 1<<48 + 7, MDS: 4}}} {
		body := EncodeMap(9, pins)
		f.Add(body)
		f.Add(body[:len(body)-1])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		version, pins, err := DecodeMap(body)
		if err != nil {
			return
		}
		if len(pins)*pinEntrySize > len(body) {
			t.Fatalf("%d pins from a %d-byte body", len(pins), len(body))
		}
		if again := EncodeMap(version, pins); !bytes.Equal(again, body) {
			t.Fatalf("accepted body %x re-encodes as %x", body, again)
		}
	})
}

// FuzzDecodeDump feeds arbitrary bytes to the dump decoder, which reads
// every MDS's MethodDump response each balancing epoch. It must never
// panic, never decode more rows than the body has bytes for, and every
// body it accepts must be exactly what EncodeDump writes for the result.
func FuzzDecodeDump(f *testing.F) {
	for _, rows := range [][]DumpRow{nil, {{Ino: 5, Parent: 1, Reads: 3, ServiceNS: 900, ChildFiles: 2}}, {{Ino: 1}, {Ino: 1<<48 + 7, Parent: 1, Lookups: -1, ChildDirs: 4}}} {
		body := EncodeDump(StatsSnapshot{Ops: 10, RPCs: 12, ServiceNS: 5000, Inodes: 3}, rows)
		f.Add(body)
		f.Add(body[:len(body)-1])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		st, rows, err := DecodeDump(body)
		if err != nil {
			return
		}
		if len(rows)*dumpRowSize > len(body) {
			t.Fatalf("%d rows from a %d-byte body", len(rows), len(body))
		}
		if again := EncodeDump(st, rows); !bytes.Equal(again, body) {
			t.Fatalf("accepted body %x re-encodes as %x", body, again)
		}
	})
}
