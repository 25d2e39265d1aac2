package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2), which wakes
// within the kernel's timer slack (about 50µs).
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		err := syscall.Nanosleep(&ts, &ts)
		if err != syscall.EINTR {
			return
		}
	}
}
