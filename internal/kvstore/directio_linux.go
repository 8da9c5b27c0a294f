package kvstore

import (
	"os"
	"syscall"
)

// openDirect opens (or creates) path for writes that bypass the page
// cache: each write goes to the device as it is, in the sectors it names.
func openDirect(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_RDWR|syscall.O_DIRECT, 0o644)
}

// datasyncer is fdatasync(2) on one file: its data, and the metadata
// needed to read it back (the size), reach stable storage; timestamps do
// not. The file's RawConn and the callback are made once, so a sync
// allocates nothing. One goroutine at a time may sync.
type datasyncer struct {
	rc  syscall.RawConn
	do  func(fd uintptr)
	err error
}

func newDatasyncer(f *os.File) (*datasyncer, error) {
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	s := &datasyncer{rc: rc}
	s.do = func(fd uintptr) {
		s.err = syscall.Fdatasync(int(fd))
		for s.err == syscall.EINTR {
			s.err = syscall.Fdatasync(int(fd))
		}
	}
	return s, nil
}

// sync fdatasyncs the file; a closed file is an error.
func (s *datasyncer) sync() error {
	if err := s.rc.Control(s.do); err != nil {
		return err
	}
	return s.err
}
