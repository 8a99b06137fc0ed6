package orb

import (
	"net"
	"sync"
	"sync/atomic"
)

const (
	// sendQueueDepth bounds the per-connection pending list; a full list
	// blocks senders until the flusher takes the backlog.
	sendQueueDepth = 1024
	// writeBatch caps the frames coalesced into one flush.
	writeBatch = 128
	// maxPooledFrame bounds the capacity of buffers returned to the frame
	// pool, so one oversized payload does not pin a large allocation forever.
	maxPooledFrame = 64 << 10
)

// framePool recycles frame buffers across connections and messages.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// getFrame fetches a pooled buffer, logically empty.
func getFrame() *[]byte {
	f := framePool.Get().(*[]byte)
	*f = (*f)[:0]
	return f
}

// putFrame recycles a buffer unless it grew past the pooling cap.
func putFrame(f *[]byte) {
	if cap(*f) > maxPooledFrame {
		return
	}
	framePool.Put(f)
}

// TransportStats is a snapshot of an ORB's transport counters, across all of
// its connections (inbound reply writers and outbound client writers, and
// the inbound readers).
type TransportStats struct {
	// FramesSent counts frames handed to the kernel.
	FramesSent int64
	// Flushes counts write syscalls; FramesSent/Flushes is the achieved
	// batching factor.
	Flushes int64
	// BytesSent counts payload bytes written.
	BytesSent int64
	// FramesDropped counts well-formed inbound frames of a kind the receiving
	// end does not serve (a reply on a server connection, a request on a client
	// one).
	FramesDropped int64
}

// transportStats is the atomic accumulator behind TransportStats.
type transportStats struct {
	frames  atomic.Int64
	flushes atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64
}

func (s *transportStats) snapshot() TransportStats {
	return TransportStats{
		FramesSent:    s.frames.Load(),
		Flushes:       s.flushes.Load(),
		BytesSent:     s.bytes.Load(),
		FramesDropped: s.dropped.Load(),
	}
}

// connWriter owns every write on one connection, by group commit: a sender
// appends its framed message to a bounded pending list and, if no flush is in
// flight, writes the backlog itself while senders arriving mid-flush append
// and return — n concurrent senders cost one syscall, a lone sender no
// goroutine hand-off. Frames are pool-recycled. It is the event plane's only
// queue: the event channel hands each forwarded event straight to it.
type connWriter struct {
	conn     net.Conn
	depth    int
	maxBatch int
	stats    *transportStats
	// flushes counts flushes in progress, so the owner's Wait covers them. A
	// flush registers under mu while closed is false, so before close and
	// before the Wait that follows it.
	flushes *sync.WaitGroup

	mu sync.Mutex
	// space wakes senders blocked on a full list: backlog taken, or closed.
	space    sync.Cond
	pending  []*[]byte
	flushing bool
	closed   bool
	// batch, vec and bufs are the flusher's: the frames it took, their write
	// vector and the header WriteTo consumes, kept so a flush allocates none.
	batch []*[]byte
	vec   [][]byte
	bufs  net.Buffers
}

// newConnWriter returns the writer for conn; flushes register with wg.
func newConnWriter(conn net.Conn, depth, maxBatch int, stats *transportStats, wg *sync.WaitGroup) *connWriter {
	w := &connWriter{
		conn:     conn,
		depth:    depth,
		maxBatch: maxBatch,
		stats:    stats,
		flushes:  wg,
		vec:      make([][]byte, 0, maxBatch),
	}
	w.space.L = &w.mu
	return w
}

// send frames m, appends it to the pending list (waiting while the list is
// full) and flushes, unless a flush is in flight: that flush then carries the
// frame and send returns at once. Frame-validation errors leave the connection
// healthy; a closed writer or a failed write reports ErrConnectionClosed.
func (w *connWriter) send(m message) error {
	f := getFrame()
	enc, err := appendFrame(*f, m)
	if err != nil {
		putFrame(f)
		return err
	}
	*f = enc
	w.mu.Lock()
	for len(w.pending) >= w.depth && !w.closed {
		w.space.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		putFrame(f)
		return ErrConnectionClosed
	}
	w.pending = append(w.pending, f)
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	w.flushes.Add(1)
	for err == nil && len(w.pending) > 0 {
		// Take the head of the backlog and slide the rest down.
		n := min(len(w.pending), w.maxBatch)
		w.batch = append(w.batch[:0], w.pending[:n]...)
		w.pending = w.pending[:copy(w.pending, w.pending[n:])]
		w.space.Broadcast()
		w.mu.Unlock()
		err = w.write(w.batch)
		for _, f := range w.batch {
			putFrame(f)
		}
		w.mu.Lock()
	}
	w.flushing = false
	w.mu.Unlock()
	w.flushes.Done()
	if err != nil {
		// Close the connection so both ends' read loops see the failure.
		w.conn.Close()
		w.close()
		return ErrConnectionClosed
	}
	return nil
}

// write hands one batch to the kernel in a single syscall: conn.Write for a
// lone frame, one net.Buffers flush (a writev on TCP) for several.
func (w *connWriter) write(frames []*[]byte) (err error) {
	var total int64
	w.vec = w.vec[:0]
	for _, f := range frames {
		w.vec = append(w.vec, *f)
		total += int64(len(*f))
	}
	if len(frames) == 1 {
		_, err = w.conn.Write(w.vec[0])
	} else {
		w.bufs = w.vec
		_, err = w.bufs.WriteTo(w.conn)
	}
	if err == nil {
		w.stats.frames.Add(int64(len(frames)))
		w.stats.flushes.Add(1)
		w.stats.bytes.Add(total)
	}
	return err
}

// close stops the writer: pending frames are discarded (to the collector,
// not the pool) and blocked senders fail. A flush blocked in the kernel
// returns when the owner closes conn.
func (w *connWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.pending = nil
	w.space.Broadcast()
	w.mu.Unlock()
}
