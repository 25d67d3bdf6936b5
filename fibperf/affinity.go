package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) cpus() []int {
	var out []int
	for c := 0; c < 64*len(s); c++ {
		if s.has(c) {
			out = append(out, c)
		}
	}
	return out
}

// setAffinity pins thread tid (0: the calling thread) to s.
func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

func getAffinity() (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

// placement confines the generator to the first CPU this process may
// use and leaves the server all of them, so the scheduler never moves
// the generator onto the core the serve loop is using, while the
// server keeps its default GOMAXPROCS and a second core for its update
// plane and runtime. With a single CPU nothing is pinned.
type placement struct {
	all, gen cpuSet
	pinned   bool
}

func newPlacement() (placement, error) {
	all, err := getAffinity()
	if err != nil {
		return placement{}, err
	}
	p := placement{all: all, gen: all}
	if cpus := all.cpus(); len(cpus) >= 2 {
		p.gen, p.pinned = cpuSet{}, true
		p.gen.set(cpus[0])
	}
	return p, nil
}

// pinSelf confines every thread of this process to the generator's
// CPU.
func (p placement) pinSelf() error {
	if !p.pinned {
		return nil
	}
	return pinThreads(&p.gen)
}

// pinThreads sets the affinity of every thread of this process.
// Threads cloned later inherit the mask of their creator, so passes
// repeat until one finds no thread left to move.
func pinThreads(s *cpuSet) error {
	done := map[int]bool{}
	for moved := true; moved; {
		moved = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			if err := setAffinity(tid, s); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("pin thread %d: %v", tid, err)
			}
			done[tid], moved = true, true
		}
	}
	return nil
}

// startOn runs start on a thread allowed every CPU, so the process it
// forks inherits them all, and then returns the thread to the
// generator's CPU.
func (p placement) startOn(start func() error) error {
	if !p.pinned {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.all); err != nil {
		return err
	}
	defer setAffinity(0, &p.gen)
	return start()
}
