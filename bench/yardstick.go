package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference host is a shared VM that slows user code down by 10 to
// 60 % for minutes at a time: CPU time per op rises with wall time, the
// kernel reports no steal and no faults, so nothing in one process's
// accounting can subtract it (README, "Noise"). The yardstick is what
// makes timings comparable across such minutes: a fixed piece of Go that
// does what this repository's code does — allocate small records, fill a
// string-keyed map, sort, look up, and some plain arithmetic — run between
// the timed segments, on every core. A segment's times are scaled by how
// long the yardstick took around it, relative to yardReferenceMS, so every
// timing reads as it would on a quiet reference host.
//
// The yardstick is stdlib-only, touches nothing of internal/* and runs in
// a process of its own, with its own heap and its collector held off
// while a sample is timed, so nothing the repository's code does — least
// of all how much it allocates or keeps alive — can move it. Its two
// parts are sized so that it slows down as much as the workloads do: when
// the host slows the workloads by x it slows the allocating part alone by
// about x^1.5 and the arithmetic part by less than x; an eighth of
// arithmetic evens it out (README, "Noise", has the measurements).
const (
	yardRecords = 17000  // allocating part: ≈ 8 ms on the quiet reference host
	yardSpins   = 600000 // arithmetic part: ≈ 1.3 ms
	// yardReferenceMS is the yardstick's time on the quiet reference host.
	// It only fixes the unit of the scaled timings; any value compares
	// two commits equally well.
	yardReferenceMS = 9.3
	// yardCollectEvery is how many samples the yardstick process takes
	// between two collections of its own heap, so that a sample allocates
	// into memory last touched that many samples ago, not into its cache.
	yardCollectEvery = 8
)

type yardRecord struct {
	id   int
	name string
	next *yardRecord
}

// yardstickOnce is one core's share of a yardstick sample.
func yardstickOnce() int {
	index := make(map[string]*yardRecord, 64)
	names := make([]string, 0, 64)
	var head *yardRecord
	for i := 0; i < yardRecords; i++ {
		name := "http://yardstick.invalid/entity/" + strconv.Itoa(i*7919%yardRecords)
		head = &yardRecord{id: i, name: name, next: head}
		index[name] = head
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0
	for _, name := range names {
		total += index[name].id
	}
	x := uint64(88172645463325252)
	for i := 0; i < yardSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return total + int(x&1)
}

// yardSample is one yardstick sample: the wall time and the CPU time it
// took, both in ms per core. Wall times are scaled by the one, CPU times
// by the other: when the host takes a core away for a while, the wall
// clock runs on and the CPU clock does not.
type yardSample struct{ wallMS, cpuMS float64 }

// yardstickSample takes one sample: every core runs yardstickOnce at the
// same time, as the workloads keep every core busy. The wall time is the
// mean of the cores' own elapsed times — each from its own start, so the
// time the scheduler takes to wake a second core is not part of it — and
// the CPU time the process's own, per core.
func yardstickSample() yardSample {
	n := runtime.GOMAXPROCS(0)
	elapsed := make([]float64, n)
	work := make([]int, n) // read below, so the compiler keeps the work
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			work[g] = yardstickOnce()
			elapsed[g] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}()
	}
	wg.Wait()
	if work[0] < 0 { // never: the sums are of non-negative ids
		return yardSample{}
	}
	return yardSample{wallMS: sum(elapsed) / float64(n), cpuMS: (cpuSeconds() - cpu0) * 1e3 / float64(n)}
}

// serveYardstick is the yardstick process (`bench yardstick`): for every
// byte on its standard input it takes one sample and prints it. Its
// collector runs only between samples, every yardCollectEvery-th one,
// before the reply, while the caller still waits.
func serveYardstick() error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(-1)
	in, out := bufio.NewReader(os.Stdin), bufio.NewWriter(os.Stdout)
	for n := 1; ; n++ {
		if _, err := in.ReadByte(); err != nil {
			return nil // the caller closed the pipe: done
		}
		y := yardstickSample()
		if n%yardCollectEvery == 0 {
			runtime.GC()
		}
		fmt.Fprintf(out, "%.6f %.6f\n", y.wallMS, y.cpuMS)
		if err := out.Flush(); err != nil {
			return err
		}
	}
}

// yardstickProc is the caller's end of a running yardstick process.
type yardstickProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startYardstick() (*yardstickProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "yardstick")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the yardstick process: %w", err)
	}
	y := &yardstickProc{cmd: cmd, in: in, out: bufio.NewReader(out)}
	// Until the process has collected its heap twice it allocates into
	// memory the kernel has yet to hand over, and its samples run long.
	for i := 0; i < 2*yardCollectEvery; i++ {
		if _, err := y.sample(); err != nil {
			_ = y.stop()
			return nil, err
		}
	}
	return y, nil
}

// sample asks the process for one sample. The caller's goroutines are
// idle meanwhile.
func (y *yardstickProc) sample() (yardSample, error) {
	if _, err := y.in.Write([]byte{'\n'}); err != nil {
		return yardSample{}, fmt.Errorf("yardstick: %w", err)
	}
	line, err := y.out.ReadString('\n')
	if err != nil {
		return yardSample{}, fmt.Errorf("yardstick: %w", err)
	}
	var s yardSample
	if _, err := fmt.Sscanf(line, "%g %g", &s.wallMS, &s.cpuMS); err != nil || s.wallMS <= 0 || s.cpuMS <= 0 {
		return yardSample{}, fmt.Errorf("yardstick: bad sample %q", line)
	}
	return s, nil
}

// stop ends the process and waits for it.
func (y *yardstickProc) stop() error {
	_ = y.in.Close() // the process exits on end of input; Wait reports how
	return y.cmd.Wait()
}

// hostSpeeds turns a round's yardstick times, taken before and after
// each of its timed intervals (sample j before interval j, sample j+1
// after it), into one speed per interval: yardReferenceMS over the median
// of the samples around the interval, its two neighbours' included — four
// samples, so that one sample hit by a descheduled core or by the tail of
// a collection in the caller does not decide. 1 is the quiet reference
// host; a busy host reads 0.4 to 0.9.
func hostSpeeds(samples []float64) []float64 {
	speeds := make([]float64, len(samples)-1)
	for j := range speeds {
		lo, hi := max(0, j-1), min(len(samples), j+3)
		speeds[j] = yardReferenceMS / median(samples[lo:hi])
	}
	return speeds
}
