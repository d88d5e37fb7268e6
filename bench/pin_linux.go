package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pin confines the whole process to one P and to one CPU — the i-th of
// those it is allowed on, counted round-robin — and returns the CPU. The
// program under test is one closed-loop client's sequential work; left
// on two vCPUs, where the kernel places its threads, GC workers and
// loopback wake-ups moved fleet_browse's ops_s by 25 % between runs of
// the same binary and seed on the reference box, pinned by 14 %. A
// neighbour on the host slows one vCPU for half a minute at a time and
// leaves the other alone, so successive repetitions take turns on the
// CPUs and the best one is from whichever was quiet.
// cpus is the set the process was allowed on before its first pin.
var cpus []int

func pin(i int) (int, error) {
	runtime.GOMAXPROCS(1)
	var mask [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(mask)
	if cpus == nil {
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
			return -1, fmt.Errorf("sched_getaffinity: %w", e)
		}
		for c := 0; c < len(mask)*64; c++ {
			if mask[c/64]&(1<<(c%64)) != 0 {
				cpus = append(cpus, c)
			}
		}
		if len(cpus) == 0 {
			return -1, fmt.Errorf("sched_getaffinity: empty mask")
		}
		mask = [16]uint64{}
	}
	cpu := cpus[i%len(cpus)]
	mask[cpu/64] = 1 << (cpu % 64)
	// A thread inherits its creator's mask, so once every existing thread
	// is pinned the process stays pinned. Two passes cover a thread born
	// of a not-yet-pinned one during the first.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited since the directory was read.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask))); e != 0 && e != syscall.ESRCH {
				return -1, fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return cpu, nil
}
