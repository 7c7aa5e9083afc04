package main

import "syscall"

// childAttr makes the kernel kill a daemon if the benchmark dies without
// running its clean-up (SIGKILL, panic): no run leaves a process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
