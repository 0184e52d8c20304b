package comm

import "sync"

// Frame-byte buffer pool for the fleet hot path. Every pipeline tick
// builds a frame and recovers one at the wearable; recycling those byte
// buffers across pipelines and goroutines keeps per-call make() out of
// the allocation profile. Callers Get a buffer, re-slice it to [:0],
// append through the Append* APIs, and Put it back when done.

// defaultByteCap holds the bytes of a 1024-channel 10-bit frame.
const defaultByteCap = 2048

var bytePool = sync.Pool{New: func() any {
	buf := make([]byte, 0, defaultByteCap)
	return &buf
}}

// GetByteBuf returns a recycled byte buffer (length 0) for frame bytes.
// Release it with PutByteBuf.
func GetByteBuf() *[]byte { return bytePool.Get().(*[]byte) }

// PutByteBuf returns a buffer obtained from GetByteBuf to the pool.
func PutByteBuf(buf *[]byte) {
	if buf == nil {
		return
	}
	*buf = (*buf)[:0]
	bytePool.Put(buf)
}
