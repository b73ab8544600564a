package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer blocks a goroutine until a due time with a timerfd registered
// in the runtime's poller. Go's own timers wake an otherwise idle
// process through epoll_wait's millisecond timeout, so a sub-
// millisecond gap is overslept by about half a millisecond — more
// than a renewal takes. A timerfd expiry is a poller event like any
// socket read and arrives within tens of microseconds, without
// spinning on a core the servers need. Linux only, like getrusage.
type pacer struct {
	f *os.File
	// fd is kept beside f because File.Fd would put the descriptor
	// back into blocking mode and take it out of the poller.
	fd uintptr
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// itimerspec mirrors struct itimerspec: no interval, one expiry.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// waitUntil returns once due has passed; at once when it already has.
func (p *pacer) waitUntil(due time.Time) error {
	d := time.Until(due)
	if d <= 0 {
		return nil
	}
	its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() { _ = p.f.Close() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
