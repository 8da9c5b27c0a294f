package kvstore

import (
	"syscall"
	"testing"
)

// TestTornTailThenAppendSurvivesSecondCrashTmpfs runs the torn-tail test
// on tmpfs, a filesystem that has no direct I/O of its own: its log takes
// the plain-handle route, or, on kernels whose tmpfs accepts O_DIRECT,
// writes that land in memory at any alignment.
func TestTornTailThenAppendSurvivesSecondCrashTmpfs(t *testing.T) {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err != nil || st.Type != tmpfsMagic {
		t.Skip("/dev/shm is not tmpfs here")
	}
	t.Setenv("TMPDIR", "/dev/shm")
	TestTornTailThenAppendSurvivesSecondCrash(t)
}
