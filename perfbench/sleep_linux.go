package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake up to a
// millisecond late on Linux when the process is otherwise idle, which
// would add up to a millisecond to every open-loop latency; nanosleep
// wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return by a signal just loops
	}
}
