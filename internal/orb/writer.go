package orb

import (
	"net"
	"sync"
	"sync/atomic"
)

const (
	// sendQueueDepth bounds the per-connection send queue; a full queue
	// blocks senders until the writer drains.
	sendQueueDepth = 1024
	// writeBatch caps the frames coalesced into one flush.
	writeBatch = 128
)

// maxPooledFrame bounds the capacity of buffers returned to the frame pool,
// so one oversized payload does not pin a large allocation forever.
const maxPooledFrame = 64 << 10

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

// TransportStats is a snapshot of an ORB's batched-writer counters, across
// all of its connections (inbound reply writers and outbound client
// writers).
type TransportStats struct {
	// FramesSent counts frames handed to the kernel.
	FramesSent int64
	// Flushes counts write syscalls; FramesSent/Flushes is the achieved
	// batching factor.
	Flushes int64
	// BytesSent counts payload bytes written.
	BytesSent int64
}

// transportStats is the atomic accumulator behind TransportStats.
type transportStats struct {
	frames  atomic.Int64
	flushes atomic.Int64
	bytes   atomic.Int64
}

func (s *transportStats) snapshot() TransportStats {
	return TransportStats{
		FramesSent: s.frames.Load(),
		Flushes:    s.flushes.Load(),
		BytesSent:  s.bytes.Load(),
	}
}

// connWriter owns every write on one connection: senders enqueue framed
// messages onto a bounded queue, and a single goroutine drains it,
// coalescing whatever is queued (up to the batch cap) into one
// net.Buffers flush — a writev on TCP — so n concurrent senders cost one
// syscall, not n. Frame buffers are pool-recycled after each flush.
type connWriter struct {
	conn     net.Conn
	queue    chan *[]byte
	done     chan struct{}
	maxBatch int
	stats    *transportStats
	once     sync.Once
}

// newConnWriter starts the writer goroutine, tracked by wg.
func newConnWriter(conn net.Conn, depth, maxBatch int, stats *transportStats, wg *sync.WaitGroup) *connWriter {
	w := &connWriter{
		conn:     conn,
		queue:    make(chan *[]byte, depth),
		done:     make(chan struct{}),
		maxBatch: maxBatch,
		stats:    stats,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.loop()
	}()
	return w
}

// send frames m and enqueues it, waiting for queue space when the queue is
// full. Frame-validation errors leave the connection healthy; a stopped
// writer reports ErrConnectionClosed.
func (w *connWriter) send(m message) error {
	f := getFrame()
	enc, err := appendFrame(*f, m)
	if err != nil {
		putFrame(f)
		return err
	}
	*f = enc
	// Check for death first: a closed done and a non-full queue are both
	// ready, and the select below would pick between them at random —
	// enqueueing onto a writer that already drained reports a phantom
	// success.
	select {
	case <-w.done:
		putFrame(f)
		return ErrConnectionClosed
	default:
	}
	select {
	case w.queue <- f:
		return nil
	case <-w.done:
		putFrame(f)
		return ErrConnectionClosed
	}
}

// close stops the writer goroutine; queued frames are discarded.
func (w *connWriter) close() {
	w.once.Do(func() { close(w.done) })
}

// loop is the writer goroutine: take one frame (blocking), opportunistically
// coalesce everything else already queued, flush once.
func (w *connWriter) loop() {
	frames := make([]*[]byte, 0, w.maxBatch)
	backing := make([][]byte, 0, w.maxBatch)
	for {
		frames = frames[:0]
		select {
		case f := <-w.queue:
			frames = append(frames, f)
		case <-w.done:
			w.drain()
			return
		}
	coalesce:
		for len(frames) < w.maxBatch {
			select {
			case f := <-w.queue:
				frames = append(frames, f)
			default:
				break coalesce
			}
		}
		backing = backing[:0]
		var total int64
		for _, f := range frames {
			backing = append(backing, *f)
			total += int64(len(*f))
		}
		// One vectored write for the whole batch. net.Buffers consumes the
		// header copy, not `backing` itself.
		bufs := net.Buffers(backing)
		_, err := bufs.WriteTo(w.conn)
		for _, f := range frames {
			putFrame(f)
		}
		if err != nil {
			// The connection is gone: close it so the peer's and our read
			// loops observe the failure, then stop.
			w.conn.Close()
			w.close()
			w.drain()
			return
		}
		w.stats.frames.Add(int64(len(frames)))
		w.stats.flushes.Add(1)
		w.stats.bytes.Add(total)
	}
}

// drain recycles whatever was queued when the writer stopped.
func (w *connWriter) drain() {
	for {
		select {
		case f := <-w.queue:
			putFrame(f)
		default:
			return
		}
	}
}
