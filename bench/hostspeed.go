package main

import (
	"bytes"
	"encoding/xml"
	"io"
	"time"

	"inca/internal/stats"
)

// This host is a small VM on shared hardware, and how fast it runs the same
// instructions changes with what its neighbours do to the memory system: over
// ten runs of one commit the server's own CPU time per operation moved
// between 0.19 and 0.27 s per thousand, and every latency moved with it,
// while a loop that only computes stayed within 4 %. No statistic taken
// inside a run removes that, because whole runs are fast or slow.
//
// So the benchmark measures the host beside the program. A fixed piece of
// work that has nothing to do with the program under test, decoding one
// report-like XML document with the standard library, is timed twenty times
// a second in the generator; how much longer it takes than refDecode is the
// host factor of that second, and every end-to-end timing, rate and CPU
// figure of that second is divided by it (a rate multiplied) before the
// median second is taken. The figures are then those of a host that decodes
// the document in exactly refDecode. README.md has the measurements: in an
// unsteady hour the spread between ten runs drops from 16 to 19 % to 6 to
// 9 % on the read latencies and CPU per operation.
//
// The work must stay independent of the repository: it may use the standard
// library only, or an optimisation of the program would speed up its own
// yardstick and cancel out.

// refDecode is what one probe takes on this host in a calm hour. It sets the
// scale of the compensated figures and nothing else.
const refDecode = 200 * time.Microsecond

// probeEvery is how often the host is probed: 20 probes a second, 0.4 % of
// one CPU.
const probeEvery = 50 * time.Millisecond

type hostProbe struct {
	doc  []byte
	sink int
}

func newHostProbe() *hostProbe {
	var b bytes.Buffer
	b.WriteString(`<report><gmt>2004-01-01T00:00:00Z</gmt><host>h.example.org</host><body>`)
	for i := 0; i < 12; i++ {
		b.WriteString(`<metric><ID>bandwidth</ID><statistic><ID>sample</ID><value>123.45</value><units>Mbps</units></statistic></metric>`)
	}
	b.WriteString(`</body></report>`)
	return &hostProbe{doc: b.Bytes()}
}

// once decodes the document four times and returns how long that took.
func (p *hostProbe) once() time.Duration {
	start := time.Now()
	for r := 0; r < 4; r++ {
		d := xml.NewDecoder(bytes.NewReader(p.doc))
		for {
			tok, err := d.Token()
			if err == io.EOF {
				break
			}
			if se, ok := tok.(xml.StartElement); ok {
				p.sink += len(se.Name.Local)
			}
		}
	}
	return time.Since(start)
}

// run probes the host until the clock stops and returns the probes that fell
// inside the measured window.
func (p *hostProbe) run(clk *runClock) []sample {
	var probes []sample
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-clk.stop:
			return probes
		case <-t.C:
		}
		took := p.once()
		if clk.phase.Load() == phaseMeasure {
			probes = append(probes, clk.sample(time.Now(), took))
		}
	}
}

// hostFactors returns, for every second of the window as bySecond divides
// it, how much slower than the reference the host was: the lower quartile
// of the second's probes (a probe that was scheduled out mid-way says
// nothing about speed) over refDecode. A second without probes gets the
// run's median factor.
func hostFactors(probes []sample, window time.Duration) []float64 {
	groups := bySecond(probes, window)
	factors := make([]float64, len(groups))
	var known []float64
	for k, g := range groups {
		if len(g) > 0 {
			factors[k] = stats.Percentile(millis(g), 25) / (float64(refDecode) / float64(time.Millisecond))
			known = append(known, factors[k])
		}
	}
	fill := 1.0
	if len(known) > 0 {
		fill = median(known)
	}
	for k, f := range factors {
		if f == 0 {
			factors[k] = fill
		}
	}
	return factors
}
