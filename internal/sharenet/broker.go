package sharenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"emmver/internal/obs"
)

// Timing defaults. Tests shrink these through BrokerOptions/ClientOptions;
// production runs leave them alone.
const (
	defaultHeartbeat = 1 * time.Second
	defaultPeerTO    = 5 * time.Second  // read deadline: a silent peer is dead
	defaultLeaseTTL  = 30 * time.Second // cube lease before reassignment
)

// cubeMaxInitialWidth mirrors the in-process splitter's cap on the seed
// split (2^w cubes over the first w comparators).
const cubeMaxInitialWidth = 10

// BrokerOptions configures Listen.
type BrokerOptions struct {
	// Workers is the fleet size: work requests are parked until this many
	// processes said hello, and the seed cube width is derived from it.
	Workers int
	// LeaseTTL bounds how long a leased cube may stay unresolved before the
	// broker hands it to someone else (0 = default 30s). Reassignment is
	// safe — results are deterministic facts, duplicates are idempotent.
	LeaseTTL  time.Duration
	Heartbeat time.Duration // keepalive period (0 = default 1s)
	PeerTO    time.Duration // silence threshold before a peer is declared dead
	Obs       *obs.Observer
}

// Broker is the fleet hub: clause fan-out, intern authority, cube leasing,
// verdict broadcast. One per distributed run.
type Broker struct {
	ln   net.Listener
	opts BrokerOptions
	obs  *obs.Observer

	sent     *obs.Counter
	received *obs.Counter
	dropped  *obs.Counter

	mu     sync.Mutex
	conns  map[int]*brokerConn
	nextID int
	joined int // hellos ever seen (never decremented: the seed width and
	// the start gate use the configured fleet size, not the survivor count)
	maxDepth int
	closed   bool

	// Intern authority: one table per bus (0 = forward, 1 = backward).
	interns [2]map[string]uint64

	// Cube state for the current depth.
	depth    int
	seeded   bool
	nComp    int
	queue    []string          // LIFO of sign strings
	leases   map[string]*lease // outstanding cubes
	parked   []*parkedReq
	proofsOn bool // a live worker 0 runs termination proofs; gates advance
	proofTop int  // highest depth worker 0 has requested work at
	done     bool
	verdict  Verdict

	wg       sync.WaitGroup
	finished chan struct{} // closed when a verdict lands or the fleet empties
	finOnce  sync.Once
}

type lease struct {
	conn    *brokerConn
	expires time.Time
}

type parkedReq struct {
	conn  *brokerConn
	depth int
	nComp int
}

// brokerConn is one accepted worker link. Control frames (work responses,
// intern replies, verdicts) go through ctrl and must be delivered; clause
// frames go through relay and are dropped when the peer is slow — the same
// lossy contract as the in-process rings.
type brokerConn struct {
	id     int
	nc     net.Conn
	ctrl   chan *frame
	relay  chan *frame
	dead   chan struct{}
	deadMu sync.Once
	proofs bool
}

func (c *brokerConn) kill() { c.deadMu.Do(func() { close(c.dead) }) }

// send queues a control frame, blocking until queued or the conn dies.
func (c *brokerConn) send(f *frame) {
	select {
	case c.ctrl <- f:
	case <-c.dead:
	}
}

// Listen starts a broker on network ("tcp" or "unix") and address.
func Listen(network, addr string, opts BrokerOptions) (*Broker, error) {
	if opts.Workers < 1 {
		return nil, errors.New("sharenet: broker needs at least one worker")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseTTL
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = defaultHeartbeat
	}
	if opts.PeerTO <= 0 {
		opts.PeerTO = defaultPeerTO
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	reg := opts.Obs.Registry()
	b := &Broker{
		ln:       ln,
		opts:     opts,
		obs:      opts.Obs,
		sent:     reg.Counter(obs.MNetSent),
		received: reg.Counter(obs.MNetReceived),
		dropped:  reg.Counter(obs.MNetDropped),
		conns:    make(map[int]*brokerConn),
		leases:   make(map[string]*lease),
		nComp:    -1,
		proofTop: -1,
		finished: make(chan struct{}),
	}
	b.interns[0] = make(map[string]uint64)
	b.interns[1] = make(map[string]uint64)
	b.wg.Add(2)
	go b.acceptLoop()
	go b.sweepLeases()
	return b, nil
}

// Addr returns the listening address (useful with ":0" TCP listeners).
func (b *Broker) Addr() net.Addr { return b.ln.Addr() }

// Done is closed when the run decided or every worker left.
func (b *Broker) Done() <-chan struct{} { return b.finished }

// Verdict returns the fleet verdict once Done is closed.
func (b *Broker) Verdict() (Verdict, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.verdict, b.done
}

// Wait blocks until the run finishes or d elapses. Listen-mode CLIs call it
// before Close so remote peers receive the finish frames.
func (b *Broker) Wait(d time.Duration) bool {
	select {
	case <-b.finished:
		return true
	case <-time.After(d):
		return false
	}
}

// Close tears the broker down: the listener stops, every link is severed.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	conns := make([]*brokerConn, 0, len(b.conns))
	for _, c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	err := b.ln.Close()
	for _, c := range conns {
		c.kill()
		c.nc.Close()
	}
	b.finOnce.Do(func() { close(b.finished) })
	b.wg.Wait()
	return err
}

func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		nc, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.serve(nc)
	}
}

// sweepLeases requeues cubes whose lease deadline passed — the holder is
// slow or dying; a duplicate solve is wasted work, never wrong.
func (b *Broker) sweepLeases() {
	defer b.wg.Done()
	t := time.NewTicker(b.opts.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-b.finished:
			return
		case now := <-t.C:
			b.mu.Lock()
			requeued := false
			for signs, l := range b.leases {
				if now.After(l.expires) {
					delete(b.leases, signs)
					b.queue = append(b.queue, signs)
					requeued = true
				}
			}
			var out []outMsg
			if requeued {
				out = b.wakeLocked()
			}
			b.mu.Unlock()
			b.deliver(out)
		}
	}
}

// serve owns one worker link: handshake, writer goroutine, read loop.
func (b *Broker) serve(nc net.Conn) {
	defer b.wg.Done()
	nc.SetReadDeadline(time.Now().Add(b.opts.PeerTO))
	hello, err := readFrame(nc)
	if err != nil || hello.typ != fHello || hello.version != protocolVersion {
		nc.Close()
		return
	}
	c := &brokerConn{
		nc:     nc,
		ctrl:   make(chan *frame, 64),
		relay:  make(chan *frame, 1024),
		dead:   make(chan struct{}),
		proofs: hello.proofs,
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		nc.Close()
		return
	}
	c.id = b.nextID
	b.nextID++
	b.conns[c.id] = c
	b.joined++
	if hello.maxDepth > b.maxDepth {
		b.maxDepth = hello.maxDepth
	}
	if c.id == 0 && c.proofs {
		b.proofsOn = true
	}
	var out []outMsg
	if b.joined == b.opts.Workers {
		out = b.wakeLocked() // fleet complete: release the start gate
	}
	b.mu.Unlock()

	c.send(&frame{typ: fWelcome, workerID: c.id, workers: b.opts.Workers})
	b.deliver(out)

	b.wg.Add(1)
	go b.writeLoop(c)
	b.readLoop(c)
	b.dropConn(c)
}

// writeLoop drains the conn's queues and keeps the link warm with
// heartbeats. Control frames get strict priority: a Go select picks ready
// cases uniformly at random, so before each (and instead of any) relay
// write the ctrl queue is polled and emptied — under clause-relay backlog,
// intern replies and work responses must not share bandwidth 50/50 with
// lossy traffic, or intern round trips stretch toward the PeerTO timeout
// that severs the link.
func (b *Broker) writeLoop(c *brokerConn) {
	defer b.wg.Done()
	hb := time.NewTicker(b.opts.Heartbeat)
	defer hb.Stop()
	var buf []byte
	write := func(f *frame) bool {
		c.nc.SetWriteDeadline(time.Now().Add(b.opts.PeerTO))
		buf = appendFrame(buf[:0], f)
		if _, err := c.nc.Write(buf); err != nil {
			c.kill()
			return false
		}
		b.sent.Add(1)
		return true
	}
	// drainCtrl empties the control queue without blocking; returns false
	// only on a write failure.
	drainCtrl := func() bool {
		for {
			select {
			case f := <-c.ctrl:
				if !write(f) {
					return false
				}
			default:
				return true
			}
		}
	}
	for {
		select {
		case <-c.dead:
			return
		case f := <-c.ctrl:
			if !write(f) {
				return
			}
		case f := <-c.relay:
			if !drainCtrl() {
				return
			}
			if !write(f) {
				return
			}
		case <-hb.C:
			if !write(&frame{typ: fHeartbeat}) {
				return
			}
		}
	}
}

func (b *Broker) readLoop(c *brokerConn) {
	for {
		c.nc.SetReadDeadline(time.Now().Add(b.opts.PeerTO))
		f, err := readFrame(c.nc)
		if err != nil {
			return
		}
		b.received.Add(1)
		switch f.typ {
		case fHeartbeat:
			// deadline already refreshed
		case fGoodbye:
			return
		case fClause:
			b.relayClause(c, f)
		case fInternReq:
			c.send(&frame{typ: fInternRep, seq: f.seq, id: b.intern(f.busID, f.key)})
		case fWorkReq:
			b.handleWorkReq(c, f.depth, f.nComp)
		case fResult:
			b.handleResult(f.kind, f.depth, f.signs)
		case fVerdict:
			b.handleVerdict(Verdict{Kind: f.kind, Depth: f.depth, Side: f.side})
		default:
			return // corrupt or future frame: sever rather than guess
		}
	}
}

// relayClause fans a published clause out to every other worker,
// non-blocking: a slow peer loses the clause (counted), never stalls the
// fleet — the socket analogue of ring overrun.
func (b *Broker) relayClause(from *brokerConn, f *frame) {
	b.mu.Lock()
	peers := make([]*brokerConn, 0, len(b.conns))
	for _, c := range b.conns {
		if c != from {
			peers = append(peers, c)
		}
	}
	b.mu.Unlock()
	for _, c := range peers {
		select {
		case c.relay <- f:
		case <-c.dead:
		default:
			b.dropped.Add(1)
		}
	}
}

// intern assigns (or recalls) the fleet-wide id of a comparator key. Ids
// are dense from 0 per bus, matching the in-process table's contract.
func (b *Broker) intern(busID byte, key string) uint64 {
	if busID > 1 {
		busID = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.interns[busID]
	if id, ok := m[key]; ok {
		return id
	}
	id := uint64(len(m))
	m[key] = id
	return id
}

// outMsg pairs a frame with its destination; state transitions collect
// them under the lock and deliver after release (send blocks on a full
// control queue, and blocking under b.mu would freeze the fleet).
type outMsg struct {
	conn *brokerConn
	f    *frame
}

func (b *Broker) deliver(out []outMsg) {
	for _, m := range out {
		m.conn.send(m.f)
	}
}

// handleWorkReq is the cube protocol's hot path; see respondLocked for the
// state machine.
func (b *Broker) handleWorkReq(c *brokerConn, depth, nComp int) {
	b.mu.Lock()
	if c.id == 0 && depth > b.proofTop {
		// Worker 0 requests work at a depth only after its termination
		// proofs there came back inconclusive — this is the advance gate.
		b.proofTop = depth
	}
	out := b.respondLocked(c, depth, nComp)
	b.mu.Unlock()
	b.deliver(out)
}

// respondLocked answers one work request, parking it when nothing can be
// said yet. Callers hold b.mu.
func (b *Broker) respondLocked(c *brokerConn, depth, nComp int) []outMsg {
	if b.done {
		return []outMsg{
			{c, &frame{typ: fVerdict, kind: b.verdict.Kind, depth: b.verdict.Depth, side: b.verdict.Side}},
			{c, &frame{typ: fWorkResp, kind: WorkFinish, depth: depth}},
		}
	}
	if depth < b.depth {
		// The fleet moved on while this worker was solving; it catches up
		// one depth per request, unrolling frames as it goes.
		return []outMsg{{c, &frame{typ: fWorkResp, kind: WorkAdvance, depth: depth + 1}}}
	}
	if depth > b.depth || b.joined < b.opts.Workers {
		// Ahead of the fleet (the seeder has not reached this depth) or the
		// start gate is still closed: park until the state catches up.
		b.parked = append(b.parked, &parkedReq{conn: c, depth: depth, nComp: nComp})
		return nil
	}
	if nComp >= 0 && (b.nComp < 0 || nComp < b.nComp) {
		b.nComp = nComp
	}
	if !b.seeded {
		if b.nComp < 0 {
			// No request at this depth has reported a comparator count yet;
			// cannot derive the seed width.
			b.parked = append(b.parked, &parkedReq{conn: c, depth: depth, nComp: nComp})
			return nil
		}
		b.seedLocked()
	}
	if n := len(b.queue); n > 0 {
		signs := b.queue[n-1]
		b.queue = b.queue[:n-1]
		b.leases[signs] = &lease{conn: c, expires: time.Now().Add(b.opts.LeaseTTL)}
		return []outMsg{{c, &frame{typ: fWorkResp, kind: WorkLease, depth: b.depth, signs: signs}}}
	}
	if len(b.leases) == 0 {
		// Depth drained under us: advance (or finish) and answer from the
		// new state. Test the state, not the woken responses: with nobody
		// parked an advance wakes no one, yet this request still needs its
		// answer.
		out := b.completeDepthLocked()
		if b.done || b.depth > depth {
			return append(out, b.respondLocked(c, depth, -1)...)
		}
	}
	// Cubes are outstanding elsewhere; wait for a split or a requeue.
	b.parked = append(b.parked, &parkedReq{conn: c, depth: depth})
	return nil
}

// seedLocked fills the queue with the 2^w exhaustive seed cubes, w derived
// from the configured fleet size exactly as the in-process splitter derives
// it from the worker count.
func (b *Broker) seedLocked() {
	w := 0
	for (1<<w) < 2*b.opts.Workers && w < b.nComp && w < cubeMaxInitialWidth {
		w++
	}
	for m := 0; m < 1<<w; m++ {
		signs := make([]byte, w)
		for k := range signs {
			signs[k] = '0'
			if m&(1<<k) != 0 {
				signs[k] = '1'
			}
		}
		b.queue = append(b.queue, string(signs))
	}
	b.seeded = true
}

// completeDepthLocked fires when the current depth has no queued or leased
// cubes left (every cube UNSAT — exhaustive partition, so no CE at this
// depth). Gated on the proof worker having cleared the depth, which keeps
// verdict parity with the sequential engine: a termination proof at depth i
// must win before the fleet can conclude NO_CE by exhausting MaxDepth.
// Returns nil when the gate is closed, else the woken responses.
func (b *Broker) completeDepthLocked() []outMsg {
	if !b.seeded || len(b.queue) > 0 || len(b.leases) > 0 {
		return nil
	}
	if b.proofsOn && b.proofTop < b.depth {
		// Worker 0 has not requested work at this depth yet, so its
		// termination proofs here are still running; a proof must get the
		// chance to win before the fleet concludes past this depth.
		return nil
	}
	if b.depth >= b.maxDepth {
		return b.finishLocked(Verdict{Kind: VerdictNoCE, Depth: b.maxDepth})
	}
	b.depth++
	b.seeded = false
	b.nComp = -1
	return b.wakeLocked()
}

// wakeLocked re-answers every parked request against the current state.
func (b *Broker) wakeLocked() []outMsg {
	parked := b.parked
	b.parked = nil
	var out []outMsg
	for _, p := range parked {
		select {
		case <-p.conn.dead:
			continue
		default:
		}
		out = append(out, b.respondLocked(p.conn, p.depth, p.nComp)...)
	}
	return out
}

// finishLocked records the fleet verdict and broadcasts it; idempotent
// (first verdict wins, exactly like the in-process decide).
func (b *Broker) finishLocked(v Verdict) []outMsg {
	if b.done {
		return nil
	}
	b.done = true
	b.verdict = v
	var out []outMsg
	for _, c := range b.conns {
		out = append(out,
			outMsg{c, &frame{typ: fVerdict, kind: v.Kind, depth: v.Depth, side: v.Side}},
			outMsg{c, &frame{typ: fWorkResp, kind: WorkFinish, depth: b.depth}})
	}
	b.parked = nil
	b.finOnce.Do(func() { close(b.finished) })
	return out
}

// handleResult retires (or splits) a cube. Results are deterministic facts
// about the formula, so duplicates — a lease that expired and was solved
// twice — are ignored harmlessly; an UNSAT additionally prunes any queued
// or leased descendants a concurrent split may have produced. An UNSAT for
// a cube that is itself no longer tracked still prunes: when an expired
// lease was reassigned and the original holder's late split re-enqueued
// the children, the new holder's refutation of the parent subsumes that
// whole subtree (sub-cubes of an UNSAT cube are UNSAT), and dropping it as
// stale would leave the fleet re-solving pruned work.
func (b *Broker) handleResult(kind byte, depth int, signs string) {
	b.mu.Lock()
	if b.done || depth != b.depth {
		b.mu.Unlock()
		return
	}
	_, leased := b.leases[signs]
	queued := -1
	for i, q := range b.queue {
		if q == signs {
			queued = i
			break
		}
	}
	if !leased && queued < 0 && kind != ResultUnsat {
		b.mu.Unlock()
		return // stale: already resolved (or pruned) through another path
	}
	delete(b.leases, signs)
	if queued >= 0 {
		b.queue = append(b.queue[:queued], b.queue[queued+1:]...)
	}
	switch kind {
	case ResultUnsat:
		b.pruneDescendantsLocked(signs)
	case ResultSplit:
		b.queue = append(b.queue, signs+"0", signs+"1")
	default:
		b.mu.Unlock()
		return
	}
	var out []outMsg
	if o := b.completeDepthLocked(); o != nil {
		out = o
	} else if kind == ResultSplit {
		out = b.wakeLocked()
	}
	b.mu.Unlock()
	b.deliver(out)
}

// pruneDescendantsLocked removes every cube refined from signs: the parent
// being UNSAT subsumes all of them.
func (b *Broker) pruneDescendantsLocked(signs string) {
	kept := b.queue[:0]
	for _, q := range b.queue {
		if len(q) > len(signs) && q[:len(signs)] == signs {
			continue
		}
		kept = append(kept, q)
	}
	b.queue = kept
	for q := range b.leases {
		if len(q) > len(signs) && q[:len(signs)] == signs {
			delete(b.leases, q)
		}
	}
}

func (b *Broker) handleVerdict(v Verdict) {
	b.mu.Lock()
	out := b.finishLocked(v)
	b.mu.Unlock()
	b.deliver(out)
}

// dropConn severs a worker: its leases are requeued immediately (no TTL
// wait), and if it was the proof worker the advance gate opens — the
// survivors can still conclude soundly, they just lose termination proofs.
// A death before the fleet ever assembled instead aborts the run: the
// start gate (joined < Workers) would otherwise hold the survivors' parked
// requests forever, since a dead worker is never replaced.
func (b *Broker) dropConn(c *brokerConn) {
	c.kill()
	c.nc.Close()
	b.mu.Lock()
	delete(b.conns, c.id)
	for signs, l := range b.leases {
		if l.conn == c {
			delete(b.leases, signs)
			b.queue = append(b.queue, signs)
		}
	}
	kept := b.parked[:0]
	for _, p := range b.parked {
		if p.conn != c {
			kept = append(kept, p)
		}
	}
	b.parked = kept
	if c.id == 0 {
		b.proofsOn = false
	}
	var out []outMsg
	if !b.done && b.joined < b.opts.Workers {
		out = b.finishLocked(Verdict{Kind: VerdictTimeout, Depth: 0})
	} else if len(b.conns) > 0 {
		out = b.wakeLocked()
	} else if !b.done {
		// Whole fleet gone without a verdict: unblock Wait.
		b.finOnce.Do(func() { close(b.finished) })
	}
	b.mu.Unlock()
	b.deliver(out)
}

// readFrame reads one length-prefixed frame off r (byte-at-a-time for the
// varint prefix, then one ReadFull for the payload).
func readFrame(r io.Reader) (*frame, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := 0
	for {
		if n == len(hdr) {
			return nil, errors.New("sharenet: length prefix too long")
		}
		if _, err := io.ReadFull(r, hdr[n:n+1]); err != nil {
			return nil, err
		}
		n++
		if hdr[n-1] < 0x80 {
			break
		}
	}
	size, used := binary.Uvarint(hdr[:n])
	if used <= 0 {
		return nil, errFrameTruncated
	}
	if size > maxFramePayload {
		return nil, fmt.Errorf("sharenet: frame of %d bytes rejected (max %d)", size, maxFramePayload)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return parseFrame(payload)
}
