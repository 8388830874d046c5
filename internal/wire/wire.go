// Package wire provides process-wide, sync.Pool-backed free lists of
// []float64 and []int message buffers and []byte scratch for the network
// codec, the spare slice headers that box a buffer as a message body, and
// the byte codec (Writer, Reader; codec.go) that both binary formats, TCP
// frames and checkpoint shards, share.
//
// A pooled buffer returns to the pool exactly once, by whoever holds it
// last. The comm substrate transfers ownership with the message (the sender
// neither reads nor mutates a sent slice), so senders Get a buffer, marshal
// into it and send it. comm boxes it as a *[]float64 or *[]int body with
// Box, because an interface holding a slice allocates its header, and
// hands receivers the plain slice from Unbox:
//
//   - on the goroutine world the receiver gets the sender's slice itself,
//     unpacks it and Puts it back;
//   - on TCP the transport Puts the body's buffer as soon as it is encoded
//     onto the socket, and the receiving endpoint decodes into a buffer of
//     its own from Get, which the receiver unpacks and Puts back.
//
// Either way every buffer cycles Get → send → last holder → Put, and once
// the pools hold the workload's working set steady-state traffic allocates
// nothing.
//
// The pools are size-classed by powers of two. Class c holds buffers whose
// capacity lies in [2^c, 2^(c+1)); Get(n) takes from class ⌈log₂ n⌉, so any
// buffer it finds is large enough, and a miss allocates exactly 2^⌈log₂ n⌉
// elements. Put files a buffer under ⌊log₂ cap⌋, so no buffer is dropped
// for being smaller than one request: it serves the next request of its
// class instead.
//
// Each element type has one header pool beside its classes: the class
// pools hold *[]E headers pointing at live buffers, and the header pool
// keeps the spare headers Get and Unbox leave behind for Put and Box to
// reuse, so neither direction allocates. Pooling raw slice values directly
// would heap-allocate a header on every Put, defeating the point.
package wire

import (
	"math/bits"
	"sync"
)

// pool is the size-classed free list of []E buffers; see the package doc.
type pool[E any] struct {
	classes [bits.UintSize]sync.Pool // *[]E, cap in [1<<c, 1<<(c+1))
	hdrs    sync.Pool                // spare *[]E headers (nil contents)
}

// box returns b in a spare header.
func (p *pool[E]) box(b []E) *[]E {
	h, _ := p.hdrs.Get().(*[]E)
	if h == nil {
		h = new([]E)
	}
	*h = b
	return h
}

// unbox returns the buffer in h and files h as a spare header.
func (p *pool[E]) unbox(h *[]E) []E {
	b := *h
	*h = nil
	p.hdrs.Put(h)
	return b
}

func (p *pool[E]) get(n int) []E {
	c := bits.Len(uint(max(n, 1) - 1)) // ⌈log₂ n⌉
	h, _ := p.classes[c].Get().(*[]E)
	if h == nil {
		return make([]E, 0, 1<<c)
	}
	return p.unbox(h)[:0]
}

func (p *pool[E]) put(b []E) {
	if cap(b) == 0 {
		return
	}
	p.classes[bits.Len(uint(cap(b)))-1].Put(p.box(b[:0])) // ⌊log₂ cap⌋
}

var (
	floatPool pool[float64]
	intPool   pool[int]
	bytePool  pool[byte]
)

// Get returns a zero-length buffer with capacity at least capHint, from the
// pool when its size class holds one.
func Get(capHint int) []float64 { return floatPool.get(capHint) }

// Put returns a buffer to the pool. The caller must not use buf afterwards.
// Nil and zero-capacity buffers are dropped.
func Put(buf []float64) { floatPool.put(buf) }

// GetInts and PutInts are Get and Put for []int buffers.
func GetInts(capHint int) []int { return intPool.get(capHint) }

func PutInts(buf []int) { intPool.put(buf) }

// Box returns buf in a spare header, for a message body that must be
// pointer-shaped; buf goes with the header. Unbox takes the buffer back out
// and files the header.
func Box[E float64 | int](buf []E) *[]E { return poolOf[E]().box(buf) }

func Unbox[E float64 | int](h *[]E) []E { return poolOf[E]().unbox(h) }

func poolOf[E float64 | int]() *pool[E] {
	if p, ok := any(&floatPool).(*pool[E]); ok {
		return p
	}
	return any(&intPool).(*pool[E])
}

// GetBytes returns a zero-length byte buffer with capacity at least
// capHint, recycled through the same size classes as the float buffers. The
// network codec uses these as encode/decode scratch so steady-state framing
// allocates nothing.
func GetBytes(capHint int) []byte { return bytePool.get(capHint) }

// PutBytes returns a byte buffer to the pool. The caller must not use buf
// afterwards. Nil and zero-capacity buffers are dropped.
func PutBytes(buf []byte) { bytePool.put(buf) }
