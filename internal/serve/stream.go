package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// The streaming data plane is a length-prefixed binary protocol over
// TCP. A client opens a connection, sends one subscription line
//
//	SUB <session-id> [mode]\n
//
// where mode is "frames" (default: raw received frame bytes) or
// "decoded" (the session's decoder output — requires a session created
// with a decoder), and then reads records until the server ends the
// stream (see end of stream below). A gateway that does not host the
// session but can resolve its owner (Config.Redirect — the cluster
// front tier) answers
//
//	MOVED <stream-addr> <session-id>\n
//
// and closes; the client re-dials the named address (SubscribeFollow
// does this automatically, bounded to a few hops). Each record is
//
//	length    uint32  bytes after this field
//	tick      uint64  pipeline tick the record belongs to
//	publishNs int64   server wall clock at publication (UnixNano)
//	flags     uint8   RecordFlag bits
//	payload   []byte  frame bytes, or big-endian float64 kinematics
//	                  when RecordFlagDecoded is set
//
// Backpressure is explicit: every subscriber owns a bounded queue.
// When the queue is full the oldest record is dropped and counted
// (DroppedFrames); a subscriber whose connection blocks a write longer
// than the stall timeout is evicted. The writer sends everything queued
// at each wake-up in one write. The publishing tick loop never waits on
// any of this.
//
// End of stream. When the session finishes, is deleted (a migration
// deletes its source copy) or the gateway drains, the subscriber first
// receives every record already queued for it and then EOF; each write
// is still bounded by the stall timeout. Only an eviction, a write
// error or Kill (a gateway dying) cuts a stream with records unsent.
//
// Handoff. A session imported from another gateway (the migration
// target) keeps what it publishes until its first subscriber of each
// mode attaches — at most the queue depth, the oldest dropped and
// counted — and that subscriber receives the held records first. While
// the held records are unclaimed, a done imported session still accepts
// that one subscriber and ends its stream after them. With the source's
// flush, a subscriber that re-dials after its old stream's EOF reads
// every tick exactly once across a migration.

// Record flags.
const (
	// RecordFlagAccepted marks a frame the wearable receiver accepted
	// (CRC-clean, in sequence); frame records without it carry corrupt
	// bytes surfaced after an exhausted retry budget.
	RecordFlagAccepted byte = 0x01
	// RecordFlagDecoded marks a decoded-kinematics record: the payload
	// is the decoder's state estimate as big-endian float64s.
	RecordFlagDecoded byte = 0x02
	// RecordFlagConcealedBin marks a decoded record whose observation
	// bin contained at least one concealed (synthesized) frame.
	RecordFlagConcealedBin byte = 0x04
)

// maxRecordLen bounds a record a client will accept: far above any real
// frame (64Ki channels at 16 bits is ~128 KiB) but small enough that a
// corrupt length field cannot force a huge allocation.
const maxRecordLen = 1 << 20

// recordHeaderLen is tick + publishNs + flags.
const recordHeaderLen = 8 + 8 + 1

// record is one queued frame delivery.
type record struct {
	tick      uint64
	publishNs int64
	flags     byte
	data      []byte // shared read-only across subscribers
}

// subscriber is one data-plane consumer: a bounded drop-oldest ring
// drained by a dedicated writer goroutine. push never blocks; the
// writer enforces the stall policy with write deadlines.
type subscriber struct {
	sess    *Session
	conn    net.Conn
	stall   time.Duration
	decoded bool // receive decoded-kinematics records instead of frames

	mu       sync.Mutex
	cond     *sync.Cond
	ring     []record
	head     int
	count    int
	dropped  int64
	closed   bool // stop immediately, queue abandoned (Kill, write error)
	finished bool // flush the queue, then close (session done or deleted)
}

func newSubscriber(sess *Session, conn net.Conn, depth int, stall time.Duration) *subscriber {
	sub := &subscriber{
		sess:  sess,
		conn:  conn,
		stall: stall,
		ring:  make([]record, depth),
	}
	sub.cond = sync.NewCond(&sub.mu)
	return sub
}

// push enqueues one record, dropping the oldest when full. Never blocks.
func (s *subscriber) push(rec record) {
	s.mu.Lock()
	if s.closed || s.finished {
		s.mu.Unlock()
		return
	}
	if s.count == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.dropped++
		s.sess.dropped.Add(1)
		s.sess.srv.obsDropped()
	}
	s.ring[(s.head+s.count)%len(s.ring)] = rec
	s.count++
	s.cond.Signal()
	s.mu.Unlock()
}

// drain blocks until records are queued or the subscriber is done, then
// moves every queued record, oldest first, onto batch. The second result
// is false when the writer should exit: closed (queue abandoned), or
// finished with the queue flushed.
func (s *subscriber) drain(batch []record) ([]record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return batch, false
		}
		if s.count > 0 {
			for ; s.count > 0; s.count-- {
				batch = append(batch, s.ring[s.head])
				s.ring[s.head] = record{}
				s.head = (s.head + 1) % len(s.ring)
			}
			return batch, true
		}
		if s.finished {
			return batch, false
		}
		s.cond.Wait()
	}
}

// queueStats reports the queue's introspection view.
func (s *subscriber) queueStats() QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	mode := "frames"
	if s.decoded {
		mode = "decoded"
	}
	return QueueStats{Mode: mode, Depth: s.count, Capacity: len(s.ring), Dropped: s.dropped}
}

// droppedCount returns the records this queue has discarded.
func (s *subscriber) droppedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// finish asks the writer to flush the queue and close cleanly: the end
// of a session that finished, was deleted or was drained.
func (s *subscriber) finish() {
	s.mu.Lock()
	s.finished = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// close stops the writer immediately, abandoning queued records — the
// abrupt end Kill stands in for a dying gateway with.
func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
}

// writeLoop drains the queue onto the connection: each wake-up takes
// every queued record and writes them with one Write. A write that
// misses the stall deadline — or any other write error — evicts the
// subscriber; the publishing side is never slowed either way.
func (s *subscriber) writeLoop() {
	defer s.conn.Close()
	var batch []record
	buf := make([]byte, 0, 512)
	for {
		var ok bool
		batch, ok = s.drain(batch[:0])
		if !ok {
			s.sess.detach(s, false)
			return
		}
		buf = buf[:0]
		for _, rec := range batch {
			buf = appendRecord(buf, rec)
		}
		if s.stall > 0 {
			s.conn.SetWriteDeadline(time.Now().Add(s.stall))
		}
		if _, err := s.conn.Write(buf); err != nil {
			// A missed deadline is a stall eviction; any other error is
			// the client going away on its own.
			evicted := false
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				evicted = true
			}
			s.mu.Lock()
			s.closed = true
			s.cond.Broadcast()
			s.mu.Unlock()
			s.sess.detach(s, evicted)
			return
		}
		// End-to-end delivery latency of each record: publication wall
		// clock → the write completing on this subscriber's connection.
		now := time.Now().UnixNano()
		for i := range batch {
			s.sess.srv.observeDelivery(now - batch[i].publishNs)
			batch[i] = record{} // release the shared frame bytes
		}
	}
}

// appendRecord serializes one record onto dst.
func appendRecord(dst []byte, rec record) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(recordHeaderLen+len(rec.data)))
	dst = binary.BigEndian.AppendUint64(dst, rec.tick)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.publishNs))
	dst = append(dst, rec.flags)
	return append(dst, rec.data...)
}

// serveStream handles one data-plane connection: parse the SUB line,
// attach, and stream until done.
func (srv *Server) serveStream(conn net.Conn) {
	defer srv.wg.Done()
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	fields := strings.Fields(line)
	if (len(fields) != 2 && len(fields) != 3) || fields[0] != "SUB" {
		fmt.Fprintf(conn, "ERR expected SUB <session-id> [frames|decoded]\n")
		conn.Close()
		return
	}
	decoded := false
	if len(fields) == 3 {
		switch fields[2] {
		case "frames":
		case "decoded":
			decoded = true
		default:
			fmt.Fprintf(conn, "ERR unknown stream mode %q (want frames or decoded)\n", fields[2])
			conn.Close()
			return
		}
	}
	sess, err := srv.session(fields[1])
	if err != nil {
		// A session this gateway does not host may live elsewhere in the
		// cluster: the redirect hook answers MOVED so the client can
		// re-dial the owning shard (the front tier and post-migration
		// stragglers both land here).
		if srv.cfg.Redirect != nil {
			if addr, id, ok := srv.cfg.Redirect(fields[1]); ok {
				fmt.Fprintf(conn, "MOVED %s %s\n", addr, id)
				conn.Close()
				return
			}
		}
		fmt.Fprintf(conn, "ERR %v\n", err)
		conn.Close()
		return
	}
	if decoded && !sess.hasDecoder() {
		fmt.Fprintf(conn, "ERR session %s has no decoder\n", sess.ID)
		conn.Close()
		return
	}
	sub := newSubscriber(sess, conn, srv.queueDepth(), srv.stallTimeout())
	sub.decoded = decoded
	if err := sess.attach(sub); err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		conn.Close()
		return
	}
	if _, err := fmt.Fprintf(conn, "OK %s\n", sess.ID); err != nil {
		sess.detach(sub, false)
		conn.Close()
		return
	}
	sub.writeLoop()
}

// Record is one decoded data-plane record, as read by clients.
type Record struct {
	Tick      uint64
	PublishNs int64
	Flags     byte
	Data      []byte
}

// ReadRecord reads one record from a subscribed stream. io.EOF marks a
// clean end of stream.
func ReadRecord(r io.Reader) (Record, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Record{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < recordHeaderLen || n > maxRecordLen {
		return Record{}, fmt.Errorf("serve: record length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	return Record{
		Tick:      binary.BigEndian.Uint64(body[0:8]),
		PublishNs: int64(binary.BigEndian.Uint64(body[8:16])),
		Flags:     body[16],
		Data:      body[recordHeaderLen:],
	}, nil
}

// MovedError reports a subscription redirect: the session lives on
// another gateway. Re-dial Addr and subscribe to ID there.
type MovedError struct {
	Addr string
	ID   string
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("serve: session moved to %s as %s", e.Addr, e.ID)
}

func subscribe(addr, sessionID, mode string) (net.Conn, *bufio.Reader, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	line := "SUB " + sessionID
	if mode != "" {
		line += " " + mode
	}
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if fields := strings.Fields(resp); len(fields) == 3 && fields[0] == "MOVED" {
		conn.Close()
		return nil, nil, &MovedError{Addr: fields[1], ID: fields[2]}
	}
	if !strings.HasPrefix(resp, "OK ") {
		conn.Close()
		return nil, nil, fmt.Errorf("serve: subscribe rejected: %s", strings.TrimSpace(resp))
	}
	return conn, br, nil
}

// SubscribeFollow opens a data-plane connection to addr, subscribes to
// the session's stream and returns the connection with a buffered reader
// positioned at the first record, following MOVED redirects (at most
// maxHops of them) — the way to reach a session through the cluster
// front tier, which always answers with the owning shard. mode is ""
// (frames) or "decoded" (rejected when the session has no decoder).
func SubscribeFollow(addr, sessionID, mode string, maxHops int) (net.Conn, *bufio.Reader, error) {
	for hop := 0; ; hop++ {
		conn, br, err := subscribe(addr, sessionID, mode)
		var moved *MovedError
		if errors.As(err, &moved) {
			if hop >= maxHops {
				return nil, nil, fmt.Errorf("serve: redirect limit (%d hops): %w", maxHops, err)
			}
			addr, sessionID = moved.Addr, moved.ID
			continue
		}
		return conn, br, err
	}
}
