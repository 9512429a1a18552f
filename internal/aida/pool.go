// Buffer recycling for the wire codec, with two fixes over plain
// sync.Pool usage:
//
//  1. Size caps. A pooled buffer that once held a huge frame would pin
//     that memory for the pool's lifetime; putEncBuf and the frame
//     free list drop anything over maxPooledBuf instead of pooling it.
//  2. A deterministic free list for decoded poll frames. ObjectFrame
//     buffers decoded from the wire come from (and return to, via
//     Release) a bounded free list, so a client's warm poll decodes
//     every frame into recycled memory — zero per-frame heap
//     allocation in steady state. sync.Pool would box each slice
//     header on Put (one small allocation per release), which is
//     exactly the overhead the zero-copy poll path exists to remove.
package aida

import "sync"

// maxPooledBuf caps the capacity of any buffer returned to a pool or
// free list; larger one-off buffers (a giant baseline frame) go to the
// GC instead of pinning memory forever.
const maxPooledBuf = 1 << 20

// putEncBuf returns an encode scratch buffer to encPool, dropping
// oversized ones.
func putEncBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	encPool.Put(bp)
}

// frameFreeList is a bounded LIFO of recycled frame buffers. A mutex
// plus slice beats sync.Pool here: Get/Put never allocate (no
// interface boxing of slice headers), so the steady-state decode path
// is genuinely allocation-free, and the bound is explicit.
type frameFreeList struct {
	mu   sync.Mutex
	free [][]byte
}

// maxFreeFrames bounds the list; beyond it buffers go to the GC.
const maxFreeFrames = 1024

func (l *frameFreeList) get(n int) []byte {
	l.mu.Lock()
	if last := len(l.free) - 1; last >= 0 {
		b := l.free[last]
		l.free[last] = nil
		l.free = l.free[:last]
		l.mu.Unlock()
		if cap(b) >= n {
			return b[:n]
		}
		// Too small: drop it and size the replacement to this stream.
		return make([]byte, n)
	}
	l.mu.Unlock()
	return make([]byte, n)
}

func (l *frameFreeList) put(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	l.mu.Lock()
	if len(l.free) < maxFreeFrames {
		l.free = append(l.free, b[:0])
	}
	l.mu.Unlock()
}

var frameBufs frameFreeList

// Release returns the frame's buffer to the decode free list. Call it
// only on frames decoded from the wire (a poll reply's entries, after
// Restore) and never use the frame afterward; releasing a frame that
// shares the manager's encode cache would corrupt later polls, so
// in-process consumers must not call it. merge.PollReply.Release walks
// a reply for exactly this purpose.
func (f ObjectFrame) Release() { frameBufs.put(f) }
