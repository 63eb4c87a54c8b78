package main

import (
	"fmt"
	"net"
	"time"
)

// The box this benchmark runs on is a few cores of a shared host whose speed
// drifts by 20-40 % for minutes at a time (same binary, same allocations,
// same bytes on the wire), which is wider than any bound a timing metric may
// declare. So every run also times a fixed piece of work that belongs to the
// benchmark alone — the calibration unit — between its rounds, and reports
// its timings in units of that: a time is multiplied by calibNominalMS over
// the run's median unit time. The unit uses only the standard library, the
// runtime and the kernel, never the program under test, so a change to the
// program moves the reported numbers by exactly what it moved the raw ones.
//
// The unit is shaped like the rounds it normalises: loopback-TCP round trips
// between two goroutines (kernel, netpoller, scheduler — what a fleet round
// does a thousand times) and a pass plus a dependent walk over a buffer
// that does not fit the L1 cache (the decode/fold side). Neither half alone
// tracks a round one-for-one — measured elasticity of round time against
// the memory half alone is 1.2-2.0, against the TCP half alone 0.45-0.95 —
// and their sum does (0.9-1.1 on fleet_direct and flood_sharded).
const (
	// calibNominalMS defines the reporting unit: timings read as if the
	// calibration unit took this long, which is about what it takes on the
	// 2-vCPU box that sized the workloads in a quiet hour.
	calibNominalMS = 0.5
	// calibEvery spaces the units inside a window: ~1 % of the window, and a
	// few hundred samples behind the median at any run length the driver uses.
	calibEvery = 50 * time.Millisecond
	// calibBurst is how many units follow each set-up, to normalise setup_s
	// by the machine's speed at that moment.
	calibBurst = 40

	calibTrips     = 14      // TCP round trips per unit
	calibFrame     = 100     // bytes per trip, each way: a vehicle-sized frame
	calibWords     = 1 << 16 // 512 KiB of uint64: past L1, inside L2
	calibWalkSteps = 1 << 14
)

// calibrator owns the calibration unit's socket pair, echo goroutine and
// buffer.
type calibrator struct {
	near, far net.Conn
	echoed    chan struct{} // closed when the echo goroutine has returned
	buf       []uint64
	sink      uint64 // keeps the compiler from dropping the memory half
	err       error  // the first failure of the socket pair; units read 0 after it
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	far, err := ln.Accept()
	if err != nil {
		near.Close()
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	c := &calibrator{near: near, far: far, echoed: make(chan struct{}), buf: make([]uint64, calibWords)}
	x := uint64(88172645463325252)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[i] = x
	}
	go func() {
		defer close(c.echoed)
		frame := make([]byte, calibFrame)
		for {
			if _, err := readFull(c.far, frame); err != nil {
				return // close() closed the pair
			}
			if _, err := c.far.Write(frame); err != nil {
				return
			}
		}
	}()
	return c, nil
}

func readFull(c net.Conn, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k, err := c.Read(p[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// close stops the echo goroutine and waits for it.
func (c *calibrator) close() {
	c.near.Close()
	c.far.Close()
	<-c.echoed
}

// unit does the fixed work once and reports how long it took on the wall
// clock and how much process CPU passed meanwhile (the caller takes both out
// of the window it is measuring). A failure of the socket pair is kept in
// c.err for the run to report.
func (c *calibrator) unit() (wall, cpu time.Duration) {
	if c.err != nil {
		return 0, 0
	}
	cpu0, _ := processUsage()
	start := time.Now()
	var frame [calibFrame]byte
	for i := 0; i < calibTrips; i++ {
		if _, err := c.near.Write(frame[:]); err != nil {
			c.err = fmt.Errorf("calibrator: %w", err)
			return 0, 0
		}
		if _, err := readFull(c.near, frame[:]); err != nil {
			c.err = fmt.Errorf("calibrator: %w", err)
			return 0, 0
		}
	}
	var sum uint64
	for _, v := range c.buf {
		sum += v ^ (sum >> 3)
	}
	at := sum
	for i := 0; i < calibWalkSteps; i++ {
		at = c.buf[at%calibWords] + uint64(i)
		if at&1 == 0 {
			sum ^= at
		} else {
			sum += at >> 1
		}
	}
	c.sink += sum
	wall = time.Since(start)
	cpu1, _ := processUsage()
	return wall, cpu1 - cpu0
}

// burst runs n units back to back and returns their median time in ms.
func (c *calibrator) burst(n int) float64 {
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		wall, _ := c.unit()
		ms = append(ms, float64(wall)/1e6)
	}
	return median(ms)
}

// scaleOf is the factor that turns a raw time into a reported one, given
// the median calibration unit time measured beside it.
func scaleOf(calibMS float64) float64 { return calibNominalMS / calibMS }
