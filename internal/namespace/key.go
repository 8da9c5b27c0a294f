package namespace

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Inode records are persisted in each MDS's local key-value store keyed by
// the parent inode number combined with the entry name, following InfiniFS
// and CFS (paper §4.2). The big-endian parent prefix keeps all children of
// one directory contiguous, so a directory scan is a single range scan
// over [key(dir, ""), key(dir+1, "")).

// AppendKey appends the KV key for the entry name under directory parent
// to dst. The name may still be bytes off the wire.
func AppendKey[S ~string | ~[]byte](dst []byte, parent Ino, name S) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(parent))
	return append(dst, name...)
}

// EncodeKey builds the KV key for the entry name under directory parent.
func EncodeKey(parent Ino, name string) []byte {
	return AppendKey(make([]byte, 0, 8+len(name)), parent, name)
}

// DecodeKey splits a KV key back into (parent, name).
func DecodeKey(k []byte) (Ino, string, error) {
	if len(k) < 8 {
		return 0, "", fmt.Errorf("namespace: key too short (%d bytes)", len(k))
	}
	return Ino(binary.BigEndian.Uint64(k)), string(k[8:]), nil
}

const inodeRecordSize = 8 + 8 + 1 + 2 + 4 + 4 + 8 + 4 + 8 + 8 + 8 // fixed part

// AppendInode appends the compact binary record of an inode — the KV
// value, and the inode's form on the wire — to dst. The name is carried in
// the key, not duplicated in the value, except that we keep it for
// self-describing dumps.
func AppendInode(dst []byte, in *Inode) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(in.Ino))
	dst = binary.BigEndian.AppendUint64(dst, uint64(in.Parent))
	dst = append(dst, byte(in.Type))
	dst = binary.BigEndian.AppendUint16(dst, in.Mode)
	dst = binary.BigEndian.AppendUint32(dst, in.Uid)
	dst = binary.BigEndian.AppendUint32(dst, in.Gid)
	dst = binary.BigEndian.AppendUint64(dst, uint64(in.Size))
	dst = binary.BigEndian.AppendUint32(dst, in.Nlink)
	dst = binary.BigEndian.AppendUint64(dst, uint64(in.Atime))
	dst = binary.BigEndian.AppendUint64(dst, uint64(in.Mtime))
	dst = binary.BigEndian.AppendUint64(dst, uint64(in.Ctime))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(in.Name)))
	return append(dst, in.Name...)
}

// RecordSize is the length of the record AppendInode writes for in.
func RecordSize(in *Inode) int { return inodeRecordSize + 2 + len(in.Name) }

// EncodeInode serialises an inode into a record of its own.
func EncodeInode(in *Inode) []byte {
	return AppendInode(make([]byte, 0, RecordSize(in)), in)
}

// ErrBadRecord reports a corrupt or truncated serialised inode.
var ErrBadRecord = errors.New("namespace: bad inode record")

// DecodeInodeInto parses a record produced by AppendInode into *in without
// allocating: every field but Name, whose bytes it returns still aliasing
// buf. A caller that already holds the name — it addressed the record by
// (parent, name) — assigns its own string; DecodeInode copies.
func DecodeInodeInto(in *Inode, buf []byte) (name []byte, err error) {
	if len(buf) < inodeRecordSize+2 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(buf))
	}
	o := 0
	in.Ino = Ino(binary.BigEndian.Uint64(buf[o:]))
	o += 8
	in.Parent = Ino(binary.BigEndian.Uint64(buf[o:]))
	o += 8
	in.Type = FileType(buf[o])
	o++
	in.Mode = binary.BigEndian.Uint16(buf[o:])
	o += 2
	in.Uid = binary.BigEndian.Uint32(buf[o:])
	o += 4
	in.Gid = binary.BigEndian.Uint32(buf[o:])
	o += 4
	in.Size = int64(binary.BigEndian.Uint64(buf[o:]))
	o += 8
	in.Nlink = binary.BigEndian.Uint32(buf[o:])
	o += 4
	in.Atime = int64(binary.BigEndian.Uint64(buf[o:]))
	o += 8
	in.Mtime = int64(binary.BigEndian.Uint64(buf[o:]))
	o += 8
	in.Ctime = int64(binary.BigEndian.Uint64(buf[o:]))
	o += 8
	nameLen := int(binary.BigEndian.Uint16(buf[o:]))
	o += 2
	if len(buf) < o+nameLen {
		return nil, fmt.Errorf("%w: truncated name", ErrBadRecord)
	}
	return buf[o : o+nameLen], nil
}

// RecordType returns the type of the inode a record produced by
// AppendInode holds, reading its type byte alone; ok is false for a
// record too short to be one.
func RecordType(buf []byte) (t FileType, ok bool) {
	if len(buf) < inodeRecordSize+2 {
		return 0, false
	}
	return FileType(buf[16]), true
}

// DecodeInode parses a record produced by AppendInode into a new inode.
func DecodeInode(buf []byte) (*Inode, error) {
	in := &Inode{}
	name, err := DecodeInodeInto(in, buf)
	if err != nil {
		return nil, err
	}
	in.Name = string(name)
	return in, nil
}
