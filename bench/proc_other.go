//go:build !linux

package main

import (
	"errors"
	"os"
	"syscall"
)

// The benchmark measures server processes through /proc and is run on
// Linux; elsewhere it builds, so that go build ./... passes, and fails at its
// first measurement.
var errNeedsLinux = errors.New("bench: process measurements need Linux's /proc")

func ownGroup() *syscall.SysProcAttr { return nil }

func killGroup(pid int) {
	if p, err := os.FindProcess(pid); err == nil {
		p.Kill()
	}
}

func runningBinary(string) []int { return nil }

func (p *serverProc) cpuSeconds() (float64, error) { return 0, errNeedsLinux }

func (p *serverProc) peakRSSMB() (float64, error) { return 0, errNeedsLinux }

func blocksOf(info os.FileInfo) int64 { return (info.Size() + 511) / 512 }
