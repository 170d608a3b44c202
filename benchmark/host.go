// The host baseline block carried by every result, so a slow host can
// be told from a slow commit: what the machine is, and a short
// calibration of two things the router leans on — hashing and the
// loopback socket round trip.

package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type hostInfo struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Commit      string  `json:"commit"`
	SHA256MBps  float64 `json:"calib_sha256_mb_per_s"`
	LoopbackRTT float64 `json:"calib_loopback_rtt_us"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s cpu=%q commit=%s sha256=%.0fMB/s loopback_rtt=%.1fus",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, h.SHA256MBps, h.LoopbackRTT)
}

// captureHost reads the baseline and spends about a second (scaled
// down for short runs) calibrating.
func captureHost(calibrate time.Duration) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
	}
	h.SHA256MBps = calibrateSHA256(calibrate / 2)
	h.LoopbackRTT = calibrateLoopback(calibrate / 2)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the
// toolchain could stamp one (a plain source checkout has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func calibrateSHA256(d time.Duration) float64 {
	buf := make([]byte, 64<<10)
	start := time.Now()
	var n int
	for time.Since(start) < d {
		sha256.Sum256(buf)
		n++
	}
	return float64(n*len(buf)) / 1e6 / time.Since(start).Seconds()
}

// calibrateLoopback is the median round trip of a one-byte ping-pong
// over a loopback TCP connection; 0 when loopback is unavailable.
func calibrateLoopback(d time.Duration) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [1]byte
		for {
			if _, err := c.Read(b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0
	}
	defer c.Close() // ends the echo goroutine's Read
	var b [1]byte
	var rtts []int64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if _, err := c.Write(b[:]); err != nil {
			break
		}
		if _, err := c.Read(b[:]); err != nil {
			break
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	return summarize(rtts).P50 / 1e3
}
