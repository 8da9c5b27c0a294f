package mds

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"origami/internal/kvstore"
	"origami/internal/lease"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// MethodBatch is the one namespace mutation on the wire. A frame carries
// one or more independent sub-ops (create, mkdir, remove, setattr,
// rename, and the insert leg of a cross-shard rename); the shard
// validates each op, applies every valid one as ONE atomic kvstore batch
// — one WAL record, one commit-pipeline ack — and answers per-op. Each op
// carries a (clientID, opID) identity so a frame re-sent after a
// transport failure or a failover is answered from the replay table
// instead of double-applying.

// BatchOpKind tags one sub-operation of a MethodBatch frame.
type BatchOpKind uint8

const (
	// BatchOpCreate creates a file or directory under a parent.
	BatchOpCreate BatchOpKind = iota + 1
	// BatchOpRemove unlinks a file or removes an empty directory.
	BatchOpRemove
	// BatchOpSetattr updates size and mode of an entry.
	BatchOpSetattr
	// BatchOpRename moves an entry between two directories of this shard,
	// replacing a destination that is a file or an empty directory.
	BatchOpRename
	// BatchOpInsert installs a caller-supplied inode under the same
	// replace rules: the destination-shard leg of a cross-shard rename.
	BatchOpInsert
)

// batchOpNames names the per-kind service histograms
// (mds.op.<name>.latency_ns). The insert leg counts as a rename.
var batchOpNames = [...]string{
	BatchOpCreate:  "create",
	BatchOpRemove:  "remove",
	BatchOpSetattr: "setattr",
	BatchOpRename:  "rename",
	BatchOpInsert:  "rename",
}

// Per-op result statuses on the wire.
const (
	batchStatusOK       uint8 = 0 // applied; payload = inode (empty for remove)
	batchStatusErr      uint8 = 1 // failed; payload = coded error string
	batchStatusReplayed uint8 = 2 // duplicate of an already-applied op
)

// batchMaxOps bounds one frame, mirroring the resolve-path bound.
const batchMaxOps = 4096

// SubOp is one sub-operation as a client states it; AppendTo is the one
// encoder of the sub-op wire form (decodeBatchOp its decoder). Which
// fields matter depends on Kind: a create names (Parent, Name) and Type; a
// remove (Parent, Name); a setattr (Parent, Name), Size and Mode; a rename moves
// (Parent, Name) to (DstParent, DstName); an insert ships Inode, which
// lands at (Inode.Parent, Inode.Name) on the shard owning that parent.
type SubOp struct {
	ID        uint64
	Kind      BatchOpKind
	Parent    namespace.Ino
	Name      string
	Type      namespace.FileType
	Size      int64
	Mode      uint16
	DstParent namespace.Ino
	DstName   string
	Inode     *namespace.Inode
}

// Dir is the directory the op writes under.
func (o *SubOp) Dir() namespace.Ino {
	if o.Kind == BatchOpInsert {
		return o.Inode.Parent
	}
	return o.Parent
}

// AppendTo appends the sub-op's encoding to w.
func (o *SubOp) AppendTo(w *rpc.Wire) {
	w.U64(o.ID).U8(uint8(o.Kind))
	switch o.Kind {
	case BatchOpCreate:
		w.U64(uint64(o.Parent)).Str(o.Name).U8(uint8(o.Type))
	case BatchOpRemove:
		w.U64(uint64(o.Parent)).Str(o.Name)
	case BatchOpSetattr:
		w.U64(uint64(o.Parent)).Str(o.Name).I64(o.Size).U32(uint32(o.Mode))
	case BatchOpRename:
		w.U64(uint64(o.Parent)).Str(o.Name).U64(uint64(o.DstParent)).Str(o.DstName)
	case BatchOpInsert:
		appendInodeBlob(w, o.Inode)
	}
}

// EncodeBatchCreate encodes one create/mkdir sub-op.
func EncodeBatchCreate(opID uint64, parent namespace.Ino, name string, typ namespace.FileType) []byte {
	var w rpc.Wire
	(&SubOp{ID: opID, Kind: BatchOpCreate, Parent: parent, Name: name, Type: typ}).AppendTo(&w)
	return w.Bytes()
}

// AppendBatchRequest appends a MethodBatch body framing subs to w.
func AppendBatchRequest(w *rpc.Wire, clientID uint64, subs [][]byte) {
	w.U64(clientID)
	env := w.BeginBlob()
	rpc.AppendBatch(w, subs)
	w.EndBlob(env)
}

// EncodeBatchRequest frames sub-ops into one MethodBatch body.
func EncodeBatchRequest(clientID uint64, subs [][]byte) []byte {
	var w rpc.Wire
	AppendBatchRequest(&w, clientID, subs)
	return w.Bytes()
}

// BatchResult is one decoded per-op outcome of a MethodBatch response.
type BatchResult struct {
	// Replayed marks a duplicate answered from the shard's replay table
	// (the op had already been applied by an earlier frame).
	Replayed bool
	// Inode is the created/updated/moved inode; nil for removes and
	// errors.
	Inode *namespace.Inode
	// Err is the op's coded failure (nil when it applied).
	Err error
}

// DecodeBatchResponse splits a MethodBatch response into per-op results
// (in request order) and the lease-grant trailer.
func DecodeBatchResponse(body []byte) ([]BatchResult, []lease.Grant, error) {
	return DecodeBatchResponseInto(nil, nil, body)
}

// DecodeBatchResponseInto is DecodeBatchResponse appending to the
// caller's results and grants. Nothing it returns aliases body.
func DecodeBatchResponseInto(results []BatchResult, grants []lease.Grant, body []byte) ([]BatchResult, []lease.Grant, error) {
	r := rpc.NewReader(body)
	env := r.Blob()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	grants = lease.DecodeGrants(r, grants)
	var subBuf [1][]byte
	subs, err := rpc.DecodeBatchInto(subBuf[:0], env)
	if err != nil {
		return nil, nil, err
	}
	results = slices.Grow(results, len(subs))
	for _, sub := range subs {
		sr := rpc.NewReader(sub)
		status := sr.U8()
		var br BatchResult
		if status == batchStatusErr {
			// Re-materialise the coded error so mds.ErrCode works on it
			// like on any RemoteError.
			br.Err = &rpc.RemoteError{Method: MethodBatch, Msg: sr.Str()}
		} else {
			br.Replayed = status == batchStatusReplayed
			if payload := sr.Blob(); len(payload) > 0 {
				in, derr := namespace.DecodeInode(payload)
				if derr != nil {
					return nil, nil, derr
				}
				br.Inode = in
			}
		}
		if err := sr.Err(); err != nil {
			return nil, nil, err
		}
		results = append(results, br)
	}
	return results, grants, nil
}

// batchOp is one sub-op on its way through the shard: the decoded
// request, the service's admission verdict, then the outcome the store
// applier leaves in it.
type batchOp struct {
	id   uint64
	kind BatchOpKind

	// Request. parent/name address an existing entry (a remove's victim,
	// a setattr's target, a rename's source); dstParent/dstName is where a
	// rename lands; in is the inode to install (built by the service for
	// a create, shipped by the client for an insert) and lands at
	// (in.Parent, in.Name); now stamps the ctime of a setattr or move.
	parent, dstParent namespace.Ino
	name, dstName     string
	size              int64
	mode              uint16
	now               int64
	in                namespace.Inode
	hasIn             bool // in is set: there is an inode to install, or one was stored

	// What the applier's unlocked pre-pass saw and locked for,
	// re-verified under the locks: the directory at the op's unlink
	// target (its stripe is held for the emptiness check).
	emptyDir namespace.Ino

	// Outcome. An op is resolved once err is set or replayed is true;
	// the applier skips resolved ops. After a successful apply, in is
	// the inode now stored (hasIn false for a remove) and gone the entry the op
	// unlinked (a remove's victim, the destination a rename or insert
	// replaced; Ino 0 when there was none). payload is a replayed op's
	// recorded response.
	err      error
	replayed bool
	gone     namespace.Inode
	payload  []byte
}

func (op *batchOp) resolved() bool { return op.err != nil || op.replayed }

// decodeBatchOp parses one sub-op body into op. The names are copied out
// of sub — the index keeps them, and sub is a recycled request buffer.
func decodeBatchOp(sub []byte, op *batchOp) error {
	r := rpc.NewReader(sub)
	op.id = r.U64()
	kind := BatchOpKind(r.U8())
	switch kind {
	case BatchOpCreate:
		op.in = namespace.Inode{Parent: namespace.Ino(r.U64()), Name: r.Str(), Type: namespace.FileType(r.U8())}
		op.hasIn = true
	case BatchOpRemove:
		op.parent, op.name = namespace.Ino(r.U64()), r.Str()
	case BatchOpSetattr:
		op.parent, op.name, op.size, op.mode = namespace.Ino(r.U64()), r.Str(), r.I64(), uint16(r.U32())
	case BatchOpRename:
		op.parent, op.name = namespace.Ino(r.U64()), r.Str()
		op.dstParent, op.dstName = namespace.Ino(r.U64()), r.Str()
	case BatchOpInsert:
		blob := r.Blob()
		if r.Err() == nil {
			name, err := namespace.DecodeInodeInto(&op.in, blob)
			if err != nil {
				return err
			}
			op.in.Name = string(name)
			op.hasIn = true
		}
	default:
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("unknown batch op kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return err
	}
	// (dir, "") is no entry: the root's own record lives at such a key.
	switch {
	case op.hasIn && op.in.Name == "", !op.hasIn && op.name == "",
		kind == BatchOpRename && op.dstName == "":
		return errors.New("empty name")
	}
	op.kind = kind
	return nil
}

// applyBatchOps is the one place a namespace mutation is validated and
// written. It applies the unresolved ops as ONE atomic kvstore batch
// under the stripe-lock hierarchy: all stripes the batch touches are
// taken in index order, each op is validated against a staged view that
// includes the earlier ops of the same batch, and every valid mutation —
// all of a rename's included — lands in a single WAL batch record, so
// the whole frame is either durable together or (after a torn-batch
// crash) absent together, and the commit pipeline charges one ack wait
// for the frame instead of one per op.
//
// Per-op validation failures (EEXIST, ENOENT, ...) do not poison the
// batch: the failing op is excluded and reported, the rest commit. An op
// whose target changed shape between the unlocked pre-pass and the locks
// is not failed either: the round commits what precedes it and the next
// round retries from that op with fresh locks, keeping frame order.
func (s *Store) applyBatchOps(sc telemetry.SpanContext, ops []batchOp) {
	for from := 0; from < len(ops); {
		from = s.applyRound(sc, ops, from)
	}
}

// round is the state of one applyRound: the kvstore batch under
// construction and the staged view over it. A plain struct with methods
// rather than closures over locals, so a frame of one runs on the stack.
type round struct {
	s *Store
	b kvstore.Batch
	// staged lets later ops of the round see earlier ops' effects, so a
	// double create of one name inside a frame still yields EEXIST. A nil
	// value is a staged delete. A frame of one op has no later ops and
	// stages nothing.
	staged map[string]*namespace.Inode
	single bool
}

func (r *round) stage(k []byte, in *namespace.Inode) {
	if r.single {
		return
	}
	if r.staged == nil {
		r.staged = make(map[string]*namespace.Inode)
	}
	var view *namespace.Inode
	if in != nil {
		cp := *in // a copy: the view must not pin the op to the heap
		view = &cp
	}
	r.staged[string(k)] = view
}

// get reads (parent, name) through the staged view.
func (r *round) get(parent namespace.Ino, name string) (namespace.Inode, bool, error) {
	if r.staged != nil {
		var kb [keyScratch]byte
		if in, ok := r.staged[string(namespace.AppendKey(kb[:0], parent, name))]; ok {
			if in == nil {
				return namespace.Inode{}, false, nil
			}
			return *in, true, nil
		}
	}
	return r.s.getLocked(parent, name)
}

// put adds the write of op.in at (op.in.Parent, op.in.Name).
func (r *round) put(op *batchOp) {
	var kb [keyScratch]byte
	var vb [recordScratch]byte
	k := namespace.AppendKey(kb[:0], op.in.Parent, op.in.Name)
	r.b.Put(k, namespace.AppendInode(vb[:0], &op.in))
	r.stage(k, &op.in)
	op.hasIn = true
}

// del adds the delete of (parent, name).
func (r *round) del(parent namespace.Ino, name string) {
	var kb [keyScratch]byte
	k := namespace.AppendKey(kb[:0], parent, name)
	r.b.Delete(k)
	r.stage(k, nil)
}

// unlinkable decides whether op may unlink victim. A directory must be
// empty, which is only decidable when the pre-pass took its stripe and
// nothing staged earlier in the round may have changed what is under it;
// otherwise the op waits for a round of its own.
func (r *round) unlinkable(op *batchOp, victim *namespace.Inode) (wait bool, err error) {
	if !victim.IsDir() {
		return false, nil
	}
	if op.emptyDir != victim.Ino || r.b.Len() > 0 {
		return true, nil
	}
	any, err := r.s.hasChildLocked(victim.Ino)
	if err == nil && any {
		err = ErrNotEmpty
	}
	return false, err
}

// applyRound applies ops[from:] up to the first op that must wait for a
// fresh pre-pass and returns that op's index (len(ops) when none).
func (s *Store) applyRound(sc telemetry.SpanContext, ops []batchOp, from int) int {
	// Unlocked pre-pass: gather the stripe set. An unlink target that is
	// a directory needs its own stripe (no create may slip under it
	// between the emptiness check and the delete).
	var set stripeSet
	for i := from; i < len(ops); i++ {
		op := &ops[i]
		if op.resolved() {
			continue
		}
		switch op.kind {
		case BatchOpCreate:
			set.add(op.in.Parent)
		case BatchOpSetattr:
			set.add(op.parent)
		case BatchOpInsert:
			set.add(op.in.Parent)
			op.emptyDir = s.dirAt(op.in.Parent, op.in.Name)
		case BatchOpRemove:
			set.add(op.parent)
			op.emptyDir = s.dirAt(op.parent, op.name)
		case BatchOpRename:
			set.add(op.parent)
			set.add(op.dstParent)
			op.emptyDir = s.dirAt(op.dstParent, op.dstName)
		default:
			op.err = fmt.Errorf("mds: unknown batch op kind %d", op.kind)
			continue
		}
		if op.emptyDir != 0 {
			set.add(op.emptyDir)
		}
	}
	if set == 0 {
		return len(ops)
	}
	s.lockStripes(set)
	defer s.unlockStripes(set)

	r := round{s: s, single: len(ops) == 1}
	i := from
round:
	for ; i < len(ops); i++ {
		op := &ops[i]
		if op.resolved() {
			continue
		}
		switch op.kind {
		case BatchOpCreate:
			if !s.HasIno(op.in.Parent) {
				op.err = ErrNotDir
				continue
			}
			if _, found, err := r.get(op.in.Parent, op.in.Name); err != nil {
				op.err = err
			} else if found {
				op.err = ErrExist
			} else {
				r.put(op)
			}
		case BatchOpRemove:
			victim, found, err := r.get(op.parent, op.name)
			if err == nil && !found {
				err = ErrNoEnt
			}
			wait := false
			if err == nil {
				wait, err = r.unlinkable(op, &victim)
			}
			if wait {
				break round
			}
			if err != nil {
				op.err = err
				continue
			}
			r.del(op.parent, op.name)
			op.gone = victim
		case BatchOpSetattr:
			in, found, err := r.get(op.parent, op.name)
			if err == nil && !found {
				err = ErrNoEnt
			}
			if err != nil {
				op.err = err
				continue
			}
			in.Size, in.Mode, in.Ctime = op.size, op.mode, op.now
			op.in = in
			r.put(op)
		case BatchOpRename, BatchOpInsert:
			dstParent, dstName := op.dstParent, op.dstName
			if op.kind == BatchOpInsert {
				dstParent, dstName = op.in.Parent, op.in.Name
			} else {
				src, found, err := r.get(op.parent, op.name)
				if err != nil || !found {
					if op.err = err; err == nil {
						op.err = ErrNoEnt
					}
					continue
				}
				op.in = src
			}
			if !s.HasIno(dstParent) {
				op.err = ErrNotDir
				continue
			}
			old, found, err := r.get(dstParent, dstName)
			wait := false
			if err == nil && found {
				wait, err = r.unlinkable(op, &old)
			}
			if wait {
				break round
			}
			if err != nil {
				op.err = err
				continue
			}
			if found {
				op.gone = old // overwritten by the put below
			}
			if op.kind == BatchOpRename {
				r.del(op.parent, op.name)
			}
			op.in.Parent, op.in.Name, op.in.Ctime = dstParent, dstName, op.now
			r.put(op)
		}
		if op.gone.Ino != 0 && op.gone.IsDir() {
			// A directory left the namespace: ops after it must not
			// trust the directory index for it, so they get a later round.
			i++
			break
		}
	}
	if r.b.Len() == 0 {
		return i
	}
	r.b.Span = sc
	err := s.db.ApplyBatch(&r.b)
	s.inoMu.Lock()
	for j := from; j < i; j++ {
		op := &ops[j]
		switch {
		case op.resolved():
		case err != nil:
			op.err = err
		default:
			if op.gone.Ino != 0 {
				s.indexLocked(refOfInode(&op.gone), -1)
			}
			if op.kind == BatchOpRename || op.kind == BatchOpSetattr {
				// It left (parent, name): moved, or rewritten in place.
				s.indexLocked(inoRef{op.in.Ino, op.parent, op.name, op.in.Type}, -1)
			}
			if op.hasIn {
				s.indexLocked(refOfInode(&op.in), 1)
			}
		}
	}
	s.inoMu.Unlock()
	return i
}

// replayTableCap bounds the per-shard replay table. Sized far above any
// client's in-flight window times the retry horizon, so a legitimate
// retry always finds its entry.
const (
	replayTableCap = 8192
	replayWays     = 4
)

type replayEntry struct {
	client, op uint64 // client 0 = empty slot
	payload    []byte
}

// replayTable deduplicates re-sent batch ops: applied ops record their
// response payload under (clientID, opID), and a duplicate is answered
// from here instead of re-applied. Rebuilt empty on restart/failover —
// the namespace itself then arbitrates (a replayed create hits EEXIST,
// which the SDK resolves via lookup).
//
// Every write of every client passes through it, so it is a fixed
// set-associative array, not a map: a third of the footprint and no
// per-op allocation. A set's newest entry pushes its oldest out, which
// evicts one client's sequential op IDs exactly FIFO at replayTableCap
// and interleaved clients nearly so.
type replayTable struct {
	mu   sync.Mutex
	sets [][replayWays]replayEntry // allocated by the first store
}

// find returns the set (client, op) lives in and its way there, or -1.
func (t *replayTable) find(client, op uint64) (*[replayWays]replayEntry, int) {
	set := &t.sets[(op+client*0x9e3779b97f4a7c15)%uint64(len(t.sets))]
	for i := range set {
		if set[i].client == client && set[i].op == op {
			return set, i
		}
	}
	return set, -1
}

// lookup returns a copy of the response recorded for (client, op). A
// copy, because store reuses the buffers of the entries it pushes out.
func (t *replayTable) lookup(client, op uint64) ([]byte, bool) {
	if client == 0 {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sets == nil {
		return nil, false
	}
	set, way := t.find(client, op)
	if way < 0 {
		return nil, false
	}
	return append([]byte(nil), set[way].payload...), true
}

// store records the response of an applied op: the record of the inode it
// left stored, empty (in == nil) for a remove. The record is encoded into
// the buffer of the entry this one pushes out, so a table that has filled
// once records without allocating.
func (t *replayTable) store(client, op uint64, in *namespace.Inode) {
	if client == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sets == nil {
		t.sets = make([][replayWays]replayEntry, replayTableCap/replayWays)
	}
	set, way := t.find(client, op)
	if way >= 0 {
		return // keep the original verdict
	}
	payload := set[replayWays-1].payload[:0]
	if in != nil {
		payload = namespace.AppendInode(slices.Grow(payload, namespace.RecordSize(in)), in)
	}
	copy(set[1:], set[:replayWays-1])
	set[0] = replayEntry{client, op, payload}
}

// opError maps a failed op's store sentinel onto its wire error code.
func opError(err error) error {
	switch {
	case errors.Is(err, ErrNotDir):
		return CodedError(CodeNotDir, "%v", err)
	case errors.Is(err, ErrExist):
		return CodedError(CodeExist, "%v", err)
	case errors.Is(err, ErrNoEnt):
		return CodedError(CodeNoEnt, "%v", err)
	case errors.Is(err, ErrNotEmpty):
		return CodedError(CodeNotEmpty, "%v", err)
	}
	return err
}

// admit gives a decoded op the service's verdict before it reaches the
// store: every directory it writes under must be served by this shard,
// and a create gets its inode built. A setattr is admitted where its
// entry is stored and no fake, whoever owns the parent: a migrated
// subtree root's record lives under a parent its shard does not own.
func (s *Service) admit(op *batchOp, now int64) {
	op.now = now
	if op.kind == BatchOpSetattr {
		if in, found, _ := s.store.lookup(op.parent, op.name); found {
			if in.Type == namespace.TypeFake {
				op.err = CodedError(CodeNotOwner, "(%d, %q) not on MDS %d", op.parent, op.name, s.ID)
			}
			return
		}
	}
	dst := op.dstParent
	if op.hasIn {
		dst = op.in.Parent
	}
	if dst == op.parent {
		dst = 0 // a rename within one directory: check it once
	}
	for _, dir := range [2]namespace.Ino{op.parent, dst} {
		if dir != 0 && !s.ownsEntry(dir) {
			op.err = CodedError(CodeNotOwner, "dir %d not on MDS %d", dir, s.ID)
			return
		}
	}
	if op.kind == BatchOpCreate {
		in := &op.in
		in.Ino = s.store.AllocIno()
		in.Mode, in.Nlink = 0o644, 1
		if in.Type == namespace.TypeDir {
			in.Mode, in.Nlink = 0o755, 2
		}
		in.Atime, in.Mtime, in.Ctime = now, now, now
	}
}

// frozenBy reports whether an unresolved op of a frame writes an entry
// in p's frozen set: an insert or create at (in.Parent, in.Name), others
// at (parent, name) and a rename at (dstParent, dstName) too. Caller
// holds opMu shared, so p's subtree cannot change shape under the check.
func (p *preparedMigration) frozenBy(ops []batchOp) bool {
	for i := range ops {
		op := &ops[i]
		if !op.resolved() && (op.hasIn && p.holds(op.in.Parent, op.in.Name) ||
			!op.hasIn && p.holds(op.parent, op.name) ||
			op.kind == BatchOpRename && p.holds(op.dstParent, op.dstName)) {
			return true
		}
	}
	return false
}

// handleBatch serves MethodBatch, the one mutation handler: decode the
// frame, answer duplicates from the replay table, wait out a migration
// freeze the frame touches, check ownership per op, apply everything
// valid as one atomic WAL batch record, and answer per-op with one grant
// trailer covering every mutated directory.
func (s *Service) handleBatch(sc telemetry.SpanContext, body []byte, resp *rpc.Wire) error {
	start := time.Now()
	r := rpc.NewReader(body)
	clientID := r.U64()
	env := r.Blob()
	if err := r.Err(); err != nil {
		return CodedError(CodeInvalid, "%v", err)
	}
	// A frame of one — every unbatched SDK write — stays off the heap.
	var oneSub [1][]byte
	subs, err := rpc.DecodeBatchInto(oneSub[:0], env)
	if err != nil {
		return CodedError(CodeInvalid, "%v", err)
	}
	if len(subs) == 0 || len(subs) > batchMaxOps {
		return CodedError(CodeInvalid, "batch of %d ops", len(subs))
	}
	var one [1]batchOp
	ops := one[:]
	if len(subs) > 1 {
		ops = make([]batchOp, len(subs))
	}
	for i, sub := range subs {
		if err := decodeBatchOp(sub, &ops[i]); err != nil {
			ops[i].err = CodedError(CodeInvalid, "bad batch op: %v", err)
		}
	}
	s.opMu.RLock()
	// A frame touching a migrating subtree waits out its freeze whole,
	// then is admitted against whatever the commit or abort left.
	for p := s.freeze.Load(); p != nil && p.frozenBy(ops); p = s.freeze.Load() {
		s.opMu.RUnlock()
		<-p.thawed
		s.opMu.RLock()
	}
	now := s.now()
	for i := range ops {
		op := &ops[i]
		if op.resolved() {
			continue
		}
		// Replay hit: a re-sent frame repeated an op this shard already
		// applied; answer from the table without touching the store.
		if payload, ok := s.replays.lookup(clientID, op.id); ok {
			s.reg.Counter("commit.ops.replayed").Inc()
			op.replayed, op.payload = true, payload
			continue
		}
		s.admit(op, now)
	}
	s.store.applyBatchOps(sc, ops)
	s.opMu.RUnlock()

	// Charge each op an equal share of the frame's service time — the
	// Data Collector and the per-kind histograms see ops, not frames.
	perOpNS := time.Since(start).Nanoseconds() / int64(len(ops))
	var dirBuf [2]namespace.Ino
	grantDirs := dirBuf[:0]
	results := resp.BeginBlob()
	resp.U32(uint32(len(ops)))
	for i := range ops {
		op := &ops[i]
		if h := s.opHist[op.kind]; h != nil {
			h.Record(perOpNS)
		}
		// One result: a status byte, then the payload as a blob.
		result := resp.BeginBlob()
		switch {
		case op.replayed:
			resp.U8(batchStatusReplayed).Blob(op.payload)
		case op.err != nil:
			resp.U8(batchStatusErr).Str(opError(op.err).Error())
		default:
			// Applied. dir is the directory the op is charged to; a rename
			// across directories also touched moved.
			var dir, moved namespace.Ino
			switch op.kind {
			case BatchOpRemove:
				dir = op.parent
			case BatchOpRename:
				dir, moved = op.parent, op.dstParent
			default:
				dir = op.in.Parent
			}
			s.recordWrite(dir, perOpNS)
			// Bump before granting: the trailer then carries the
			// post-mutation epoch, which the mutating client adopts as its
			// own bump (+1) without flushing its cache.
			s.leases.Bump(dir)
			grantDirs = append(grantDirs, dir)
			if moved != 0 && moved != dir {
				s.leases.Bump(moved)
				grantDirs = append(grantDirs, moved)
			}
			if op.gone.Ino != 0 && op.gone.IsDir() {
				s.leases.Revoke(op.gone.Ino)
			}
			var stored *namespace.Inode // nil: a remove leaves nothing
			if op.hasIn {
				stored = &op.in
			}
			s.replays.store(clientID, op.id, stored)
			resp.U8(batchStatusOK)
			appendInodeBlob(resp, stored)
		}
		resp.EndBlob(result)
	}
	resp.EndBlob(results)
	if len(grantDirs) > 1 {
		slices.Sort(grantDirs)
		grantDirs = slices.Compact(grantDirs)
	}
	s.appendGrants(resp, grantDirs)
	return nil
}
