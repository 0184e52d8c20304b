package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"sync/atomic"
	"time"

	"mindful/internal/serve"
)

// errSessionDone ends a resubscription: the session finished while the
// subscriber was away.
var errSessionDone = errors.New("session finished")

// redial resubscribes through the front tier, which resolves the key
// against the current routing table.
func (st *setupState) redial(key string) func() (net.Conn, *bufio.Reader, error) {
	return func() (net.Conn, *bufio.Reader, error) {
		conn, br, err := serve.SubscribeFollow(st.sys.stream, key, "", 4)
		if err != nil {
			if info, ierr := st.sys.cl.SessionInfo(key); ierr == nil && info.State == serve.StateDone {
				return nil, nil, errSessionDone
			}
		}
		return conn, br, err
	}
}

// received is one record as the subscriber read it.
type received struct {
	tick      uint64
	publishNs int64
	readNs    int64
}

// gap is one sever the subscriber reconnected across: the last record
// before it, the end of stream, the resubscription answer and the first
// record after it; skipped counts the ticks published in between.
type gap struct {
	lastNs, eofNs, okNs, firstNs int64
	skipped                      int64
}

// stream is one subscriber's view of a session.
type stream struct {
	ticks    int
	recs     []received
	digest   hash.Hash64
	gaps     []gap
	missing  int64
	finished atomic.Bool // the final tick has been read
	err      error
}

func (s *stream) skipped() int64 {
	var n int64
	for _, g := range s.gaps {
		n += g.skipped
	}
	return n
}

// read consumes records until the stream ends after the session's final
// tick. A stream that ends early is a sever: with redial it reconnects
// and records the gap, without it the rest of the ticks are missing.
func (s *stream) read(conn net.Conn, br *bufio.Reader, redial func() (net.Conn, *bufio.Reader, error), deadline time.Time, quit <-chan struct{}) {
	h := fnv.New64a()
	s.digest = h
	s.recs = make([]received, 0, s.ticks)
	next := uint64(0) // the tick expected next
	lastNs := time.Now().UnixNano()
	var pending *gap
	defer func() {
		if conn != nil {
			conn.Close()
		}
		if last := int64(next); last < int64(s.ticks) {
			s.missing += int64(s.ticks) - last
		}
	}()
	for {
		conn.SetReadDeadline(deadline)
		rec, err := serve.ReadRecord(br)
		now := time.Now().UnixNano()
		if err == nil {
			if pending != nil {
				pending.firstNs = now
				pending.skipped = int64(rec.Tick) - int64(next)
				next = rec.Tick
				s.gaps = append(s.gaps, *pending)
				pending = nil
			}
			switch {
			case rec.Tick > next:
				s.missing += int64(rec.Tick - next)
			case rec.Tick < next:
				s.missing++ // a repeated or out-of-order record
			}
			h.Write(rec.Data)
			s.recs = append(s.recs, received{tick: rec.Tick, publishNs: rec.PublishNs, readNs: now})
			next = max(next, rec.Tick+1)
			lastNs = now
			if int(next) == s.ticks {
				s.finished.Store(true)
			}
			continue
		}
		conn.Close()
		conn = nil
		if int(next) == s.ticks {
			return
		}
		if err != io.EOF || redial == nil {
			s.err = fmt.Errorf("stream ended at tick %d of %d: %v", next, s.ticks, err)
			return
		}
		g := gap{lastNs: lastNs, eofNs: now}
		for {
			conn, br, err = redial()
			if err == nil {
				break
			}
			if errors.Is(err, errSessionDone) || time.Now().After(deadline) {
				s.err = fmt.Errorf("resubscribe at tick %d: %v", next, err)
				return
			}
			select {
			case <-quit:
				s.err = fmt.Errorf("stopped at tick %d", next)
				return
			case <-time.After(time.Millisecond):
			}
		}
		g.okNs = time.Now().UnixNano()
		pending = &g
	}
}
