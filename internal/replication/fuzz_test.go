package replication

import (
	"testing"

	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// The bodies FuzzReceiverFrames steers to each method, by the method
// byte it is fed.
const (
	fuzzAppend = iota
	fuzzSnapChunk
	fuzzIngest
)

// The primaries whose streams the fuzzed receiver hosts: one live (tail
// appends accepted), one mid-snapshot (chunks accepted).
const (
	fuzzLive     = 1
	fuzzSnapshot = 3
)

const fuzzSession = 7

// fuzzRecordList is a record list of the given records, each a batch.
func fuzzRecordList(w *rpc.Wire, recs ...*kvstore.Batch) []byte {
	mds.AppendRecordList(w, len(recs))
	for _, b := range recs {
		ops, n := b.Ops()
		mds.AppendRecord(w, ops, n)
	}
	return w.Bytes()
}

// fuzzSeeds are well-formed bodies of the three methods — a rename
// record, a create, a snapshot chunk, a migration copy, an empty append —
// plus a migration record holding a metadata key.
func fuzzSeeds() map[int][][]byte {
	put := func(b *kvstore.Batch, in *namespace.Inode) {
		b.Put(namespace.EncodeKey(in.Parent, in.Name), namespace.EncodeInode(in))
	}
	file := &namespace.Inode{Ino: 1<<48 + 2, Parent: namespace.RootIno, Name: "f", Type: namespace.TypeFile}
	moved := *file
	moved.Name = "g"
	var create, rename, meta kvstore.Batch
	put(&create, file)
	rename.Delete(namespace.EncodeKey(file.Parent, file.Name))
	put(&rename, &moved)
	put(&meta, file)
	meta.Put([]byte("\xffmeta\xffnext_ino"), []byte{0, 1, 0, 0, 0, 0, 0, 9})

	appendBody := func(recs ...*kvstore.Batch) []byte {
		var w rpc.Wire
		appendHeader(&w, fuzzLive, fuzzSession)
		w.U64(uint64(len(recs))).U64(1)
		return fuzzRecordList(&w, recs...)
	}
	var chunk rpc.Wire
	appendHeader(&chunk, fuzzSnapshot, fuzzSession)
	var ingest, metaIngest rpc.Wire
	return map[int][][]byte{
		fuzzAppend:    {appendBody(&create, &rename), appendBody(&rename), appendBody()},
		fuzzSnapChunk: {fuzzRecordList(&chunk, &create)},
		fuzzIngest:    {fuzzRecordList(&ingest, &create), fuzzRecordList(&metaIngest, &meta)},
	}
}

// FuzzReceiverFrames feeds arbitrary bodies to the one decoder of store
// state on the wire — the record list — through every method that
// carries one: an Append to a receiver with a live session, a SnapChunk
// to a receiver mid-snapshot, and a MethodIngest to a scratch shard. No
// input may panic, and a body that is refused applies nothing.
func FuzzReceiverFrames(f *testing.F) {
	for method, bodies := range fuzzSeeds() {
		for _, body := range bodies {
			f.Add(uint8(method), body)
			f.Add(uint8(method), body[:len(body)/2])
		}
	}
	rc := NewReceiver(2, f.TempDir(), nil, kvstore.Options{}, nil)
	f.Cleanup(func() { rc.Close() })
	for _, primary := range []int{fuzzLive, fuzzSnapshot} {
		var w rpc.Wire
		appendHeader(&w, primary, fuzzSession)
		if err := rc.handleSnapBegin(rpc.CallInfo{}, w.Bytes(), nil); err != nil {
			f.Fatal(err)
		}
	}
	var end, resp rpc.Wire
	appendHeader(&end, fuzzLive, fuzzSession)
	end.U64(0)
	if err := rc.handleSnapEnd(rpc.CallInfo{}, end.Bytes(), &resp); err != nil {
		f.Fatal(err)
	}

	shard, err := mds.OpenStore(f.TempDir(), 0, kvstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	svc := mds.NewService(0, shard, nil)
	addr, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	cli, err := rpc.Dial(addr)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cli.Close() })

	// deliver hands body to the method's handler and reports the error
	// and how many records it wrote to the store behind it.
	deliver := func(method int, body []byte) (applied int64, err error) {
		st := shard
		switch method {
		case fuzzAppend:
			rc.mu.Lock()
			rep := rc.replicas[fuzzLive]
			rep.applied = 0 // every seed appends from seq 1
			rc.mu.Unlock()
			st = rep.store
		case fuzzSnapChunk:
			st = rc.ReplicaStore(fuzzSnapshot)
		}
		before := st.DBStats().Batches
		switch method {
		case fuzzAppend:
			var resp rpc.Wire
			err = rc.handleAppend(rpc.CallInfo{}, body, &resp)
		case fuzzSnapChunk:
			err = rc.handleSnapChunk(rpc.CallInfo{}, body, nil)
		default:
			_, err = cli.Call(mds.MethodIngest, body)
		}
		return st.DBStats().Batches - before, err
	}
	// The seeds reach the apply path: all of them apply but the metadata
	// ingest, which is refused.
	for method, bodies := range fuzzSeeds() {
		for i, body := range bodies {
			_, err := deliver(method, body)
			if refuse := method == fuzzIngest && i == 1; (err != nil) != refuse {
				f.Fatalf("seed %d of method %d: err = %v", i, method, err)
			}
		}
	}

	f.Fuzz(func(t *testing.T, method uint8, body []byte) {
		if applied, err := deliver(int(method)%3, body); err != nil && applied != 0 {
			t.Fatalf("refused body (%v) applied %d records", err, applied)
		}
	})
}
