package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// peerClient is the outbound half of the wire protocol for one remote
// peer: a small pool of lazily dialed TCP connections, each pipelined
// (many requests in flight, correlated by id), plus a breaker that makes a
// dead peer fail fast — the Node's fallback-to-local path must cost one
// timeout, not one timeout per request.
type peerClient struct {
	id, addr string
	cfg      Config

	inflight chan struct{} // bounded in-flight tokens across the pool
	reqID    atomic.Uint64
	slots    []*connSlot
	next     atomic.Uint64
	closed   atomic.Bool

	mu        sync.Mutex
	downUntil time.Time // breaker: fail fast until this instant
}

// connSlot holds one pooled connection; its mutex serializes dialing so a
// dead peer is re-dialed by one caller at a time while other slots (and
// live connections) proceed.
type connSlot struct {
	mu sync.Mutex
	c  *conn
}

// conn is one pipelined connection: writes are serialized by wmu, the
// reader goroutine dispatches responses to waiting calls by request id.
type conn struct {
	nc   net.Conn
	wmu  sync.Mutex
	wbuf []byte

	pmu     sync.Mutex
	pending map[uint64]chan callResult
	closed  bool

	slot *connSlot
	peer *peerClient
}

type callResult struct {
	d   core.Decision
	err error
}

var (
	// errPeerDown is the breaker's fast-fail: the peer recently refused a
	// dial or killed a connection, and the hold-off has not elapsed.
	errPeerDown = errors.New("cluster: peer is down (breaker open)")
	// errConnClosed reports a send raced with connection teardown.
	errConnClosed = errors.New("cluster: connection closed")
	// errInflightFull reports the bounded in-flight window is exhausted and
	// the caller's context expired while waiting for a slot.
	errInflightFull = errors.New("cluster: peer in-flight window full")
)

func newPeerClient(id, addr string, cfg Config) *peerClient {
	p := &peerClient{
		id: id, addr: addr, cfg: cfg,
		inflight: make(chan struct{}, cfg.MaxInflight),
		slots:    make([]*connSlot, cfg.PoolSize),
	}
	for i := range p.slots {
		p.slots[i] = &connSlot{}
	}
	return p
}

// Classify forwards one image to the peer and waits for its decision. The
// caller's context bounds the whole exchange (the Node passes a context
// capped at ForwardTimeout); any transport or peer error is returned for
// the Node to translate into local fallback.
func (p *peerClient) Classify(ctx context.Context, fp cache.Fingerprint, shape []int, pixels []float64) (core.Decision, error) {
	payload := appendClassifyReq(make([]byte, 0, 8+32+1+4*len(shape)+8*len(pixels)), 0, fp, shape, pixels)
	res, err := p.call(ctx, msgClassify, payload)
	if err != nil {
		return core.Decision{}, err
	}
	return res.d, nil
}

// call runs one correlated request/response exchange. The first 8 payload
// bytes must be the request-id placeholder; call stamps the real id.
func (p *peerClient) call(ctx context.Context, typ byte, payload []byte) (callResult, error) {
	select {
	case p.inflight <- struct{}{}:
		defer func() { <-p.inflight }()
	default:
		// Window full: wait, but never past the caller's deadline.
		select {
		case p.inflight <- struct{}{}:
			defer func() { <-p.inflight }()
		case <-ctx.Done():
			return callResult{}, fmt.Errorf("%w: %v", errInflightFull, ctx.Err())
		}
	}

	c, err := p.getConn(ctx)
	if err != nil {
		return callResult{}, err
	}
	id := p.reqID.Add(1)
	putUint64(payload[:8], id)
	ch := make(chan callResult, 1)
	if err := c.send(id, ch, typ, payload, ctx); err != nil {
		return callResult{}, err
	}
	select {
	case res := <-ch:
		if res.err == nil {
			p.markUp()
		}
		return res, res.err
	case <-ctx.Done():
		c.unregister(id)
		return callResult{}, ctx.Err()
	}
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// getConn returns a live pooled connection, dialing one if its slot is
// empty. The breaker short-circuits dial attempts while the peer is held
// down, so callers fail in microseconds instead of a dial timeout each.
func (p *peerClient) getConn(ctx context.Context) (*conn, error) {
	if p.closed.Load() {
		return nil, errConnClosed
	}
	slot := p.slots[p.next.Add(1)%uint64(len(p.slots))]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.c != nil {
		return slot.c, nil
	}
	p.mu.Lock()
	down := time.Now().Before(p.downUntil)
	p.mu.Unlock()
	if down {
		return nil, errPeerDown
	}
	d := net.Dialer{Timeout: p.cfg.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		p.markDown()
		return nil, fmt.Errorf("cluster: dialing peer %s (%s): %w", p.id, p.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &conn{nc: nc, pending: make(map[uint64]chan callResult), slot: slot, peer: p}
	slot.c = c
	go c.readLoop()
	return c, nil
}

// markDown opens the breaker for the configured backoff.
func (p *peerClient) markDown() {
	p.mu.Lock()
	p.downUntil = time.Now().Add(p.cfg.Backoff)
	p.mu.Unlock()
}

// markUp closes the breaker after a successful exchange.
func (p *peerClient) markUp() {
	p.mu.Lock()
	p.downUntil = time.Time{}
	p.mu.Unlock()
}

// up reports whether the breaker currently admits traffic.
func (p *peerClient) up() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !time.Now().Before(p.downUntil)
}

// liveConns counts pooled connections currently established.
func (p *peerClient) liveConns() int {
	n := 0
	for _, s := range p.slots {
		s.mu.Lock()
		if s.c != nil {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// close tears down every pooled connection (pending calls fail) and stops
// future dials — calls after close fail fast to the local fallback path.
func (p *peerClient) close() {
	p.closed.Store(true)
	for _, s := range p.slots {
		s.mu.Lock()
		c := s.c
		s.mu.Unlock()
		if c != nil {
			c.fail(errConnClosed)
		}
	}
}

// send registers the waiter and writes one frame. A write failure tears
// the connection down (failing every pending call, including this one's
// registered channel) and is also returned directly.
func (c *conn) send(id uint64, ch chan callResult, typ byte, payload []byte, ctx context.Context) error {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return errConnClosed
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	var deadline time.Time
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	c.wmu.Lock()
	c.nc.SetWriteDeadline(deadline)
	var err error
	c.wbuf, err = WriteFrame(c.nc, c.wbuf, typ, payload)
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("cluster: writing to peer %s: %w", c.peer.id, err))
		return err
	}
	return nil
}

// unregister abandons a call (context expiry): a late response is dropped
// by deliver when it finds no waiter.
func (c *conn) unregister(id uint64) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
}

// deliver hands one response to its waiter, if still registered.
func (c *conn) deliver(id uint64, res callResult) {
	c.pmu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if ch != nil {
		ch <- res
	}
}

// fail tears the connection down exactly once: every pending call receives
// err, the slot is vacated for a future redial, and the breaker opens so
// the peer is not hammered while it is gone.
func (c *conn) fail(err error) {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return
	}
	c.closed = true
	waiters := c.pending
	c.pending = nil
	c.pmu.Unlock()

	c.nc.Close()
	c.slot.mu.Lock()
	if c.slot.c == c {
		c.slot.c = nil
	}
	c.slot.mu.Unlock()
	if err != errConnClosed {
		c.peer.markDown()
	}
	for _, ch := range waiters {
		ch <- callResult{err: err}
	}
}

// readLoop dispatches pipelined responses by request id until the stream
// dies. Any framing error is connection-fatal: once the stream loses sync
// there is no trustworthy next frame.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		typ, payload, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				err = errConnClosed
			}
			c.fail(err)
			return
		}
		switch typ {
		case msgDecision:
			id, d, derr := decodeDecisionResp(payload)
			if derr != nil {
				c.fail(derr)
				return
			}
			c.deliver(id, callResult{d: d})
		case msgError:
			id, msg, derr := decodeIDResp(payload)
			if derr != nil {
				c.fail(derr)
				return
			}
			c.deliver(id, callResult{err: fmt.Errorf("cluster: peer %s: %s", c.peer.id, string(msg))})
		case msgPong:
			id, _, derr := decodeIDResp(payload)
			if derr != nil {
				c.fail(derr)
				return
			}
			c.deliver(id, callResult{})
		default:
			c.fail(fmt.Errorf("%w: unexpected message type 0x%02x", ErrCorruptFrame, typ))
			return
		}
	}
}
