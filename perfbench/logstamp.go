package main

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"time"
)

// tickDT is the fleet's default tick length in simulated seconds.
const tickDT = 0.1

// logStamp is the traced run's Config.LogW: it timestamps every
// event-log line as the scheduler writes it, which is the one outside seam
// into the event loop. It never alters a line, so the log the fleet keeps
// is unchanged. It splits every wall gap between records into advance
// time (the two records sit on different tick boundaries, so the clock
// moved between them) and event time (same boundary: admission, backfill,
// retune work). Untraced runs set no LogW at all.
type logStamp struct {
	start    time.Time
	last     time.Duration
	lastTick int64
	advance  time.Duration
	event    time.Duration
}

func newLogStamp() *logStamp {
	return &logStamp{start: time.Now(), lastTick: -1}
}

// mark restarts the gap clock, so time spent before it (fleet
// construction, job submission) is attributed to nothing.
func (s *logStamp) mark() { s.last = time.Since(s.start) }

func (s *logStamp) Write(p []byte) (int, error) {
	now := time.Since(s.start)
	t, _ := strconv.ParseFloat(string(field(p, `"t":`, ',')), 64)
	// Events bind to the first tick boundary at or after their timestamp;
	// completions carry sub-tick finish times inside the tick that ended
	// them. Either way ceil names the boundary.
	tick := int64(math.Ceil(t/tickDT - 1e-6))
	if tick != s.lastTick {
		s.advance += now - s.last
	} else {
		s.event += now - s.last
	}
	s.lastTick = tick
	s.last = now
	return len(p), nil
}

// logWriter is the LogW a fleet gets: the stamp when traced, else none.
// A nil *logStamp must not become a non-nil io.Writer.
func (s *logStamp) logWriter() io.Writer {
	if s == nil {
		return nil
	}
	return s
}

// field returns the bytes after key up to the terminator, or nil.
func field(p []byte, key string, term byte) []byte {
	i := bytes.Index(p, []byte(key))
	if i < 0 {
		return nil
	}
	rest := p[i+len(key):]
	if j := bytes.IndexByte(rest, term); j >= 0 {
		return rest[:j]
	}
	return rest
}
