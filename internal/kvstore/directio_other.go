//go:build !linux

package kvstore

import (
	"errors"
	"os"
)

// openDirect reports that the log has no direct I/O on this platform; it
// writes through the page cache instead.
func openDirect(string) (*os.File, error) { return nil, errors.ErrUnsupported }

// datasyncer makes one file's data durable.
type datasyncer struct{ f *os.File }

func newDatasyncer(f *os.File) (*datasyncer, error) { return &datasyncer{f}, nil }

func (s *datasyncer) sync() error { return s.f.Sync() }
