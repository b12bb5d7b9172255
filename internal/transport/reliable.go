package transport

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/wire"
)

// ErrPeerDown is returned by Reliable.Send when the destination has
// been declared down (by the failure detector via SetPeerDown, or by
// the retransmitter exhausting its retries). Senders get an immediate
// error instead of queueing work for a corpse — the fail-fast half of
// the paper's "detect site failures … and try to terminate computations
// cleanly".
var ErrPeerDown = errors.New("transport: peer down")

// ErrDeadlineExpired is surfaced (through Send/SendWithDeadline and
// the OnDrop callback) for frames whose deadline passed before
// delivery could be confirmed. Expiry is deliberate shedding, not
// silent loss: the overload plane (DESIGN.md §14) counts every expired
// frame, and the stall detector treats them as non-stalls.
var ErrDeadlineExpired = errors.New("transport: frame deadline expired")

// errClosed is returned after Close.
var errClosed = errors.New("transport: reliable layer closed")

// ReliableConfig tunes the reliable delivery layer.
type ReliableConfig struct {
	// RetransmitTimeout is the initial ack deadline (default 15ms).
	RetransmitTimeout time.Duration
	// RetransmitMax caps the exponential backoff (default 500ms).
	RetransmitMax time.Duration
	// MaxRetries is how many retransmissions a frame gets before its
	// peer is declared down (default 20).
	MaxRetries int
	// Window bounds the unacked frames per peer; Send blocks when the
	// window is full (backpressure toward the sites) (default 256).
	Window int
	// DedupWindow bounds the receiver's out-of-order memory per peer
	// (default 4096). When a sequence gap outlives this many later
	// frames (its sender abandoned it), the window slides past it.
	DedupWindow int
	// OnDrop is invoked (from the retransmit goroutine) for every
	// frame abandoned because its peer went down. The frame is the
	// original payload handed to Send.
	OnDrop func(dst NodeID, frame []byte, err error)
	// Epoch is this node incarnation's number, stamped on every data
	// packet. A receiver seeing a higher epoch from a peer resets that
	// peer's dedup window (the restarted incarnation has a fresh
	// sequence space); lower-epoch packets — stragglers from a dead
	// incarnation — are dropped unacked. Acks echo the data packet's
	// epoch so a sender ignores acks addressed to its predecessor.
	Epoch uint32
	// Park, when true, holds frames for down peers instead of
	// dropping them: in-flight and newly sent frames are parked and
	// re-injected on SetPeerUp. Crash recovery needs this — a reply to
	// a request the receiver deduplicated is never regenerated, so
	// dropping it on suspicion would lose it forever. Parked frames
	// are not bounded by Window; they are bounded by the computation
	// the dead peer is no longer driving.
	Park bool
	// AckDelay is the grace window the receive loop waits, once input
	// goes idle, before settling ack debts with dedicated ack packets.
	// The delay gives outbound traffic (a reply batch forming in the
	// coalescer) a chance to piggyback the acks for free. Bounded: the
	// window is armed when debt first accumulates, not re-armed per
	// frame, so a trickle of inbound frames cannot defer acks past one
	// window. Default 1ms (well under RetransmitTimeout); negative
	// flushes immediately.
	AckDelay time.Duration
	// OnAccept is called synchronously for every fresh (non-duplicate)
	// data frame BEFORE its ack is emitted, with the unwrapped
	// payload. The recovery journal hooks in here: once a frame is
	// acked the sender will never retransmit it, so it must be logged
	// first (accepted ⇒ journaled). An error suppresses both ack and
	// delivery — the sender retransmits later.
	OnAccept func(src NodeID, payload []byte) error
	// RetryBudgetRate and RetryBudgetBurst layer a per-peer token
	// bucket over the retransmit backoff: each retransmission spends a
	// token, tokens refill at Rate per second with Burst capacity, and
	// an empty bucket defers the frame one RetransmitTimeout instead of
	// firing. The budget turns a struggling peer's backlog into a
	// bounded trickle rather than a synchronized retransmit storm.
	// Zero for either keeps retries unlimited (the prior behavior).
	RetryBudgetRate  float64
	RetryBudgetBurst int
}

// ReliableStats counts reliable-layer activity.
type ReliableStats struct {
	DataSent    uint64 // first transmissions of sequenced frames
	Retransmits uint64 // backoff retransmissions
	AcksSent    uint64 // dedicated ack packets emitted by the receive side
	AckPiggy    uint64 // acks piggybacked on outbound data/raw packets
	AcksRecv    uint64 // in-flight frames cleared by incoming ack state
	DupDrops    uint64 // duplicate frames suppressed by the dedup window
	FailFasts   uint64 // frames abandoned via the peer-down path
	RawSent     uint64 // best-effort (unsequenced) frames
	Parked      uint64 // frames parked for a down peer (Park mode)
	StaleDrops  uint64 // lower-epoch packets (or stale ack state) dropped
	// Expired counts frames shed because their deadline passed before
	// an ack arrived (dropped from the send window, the parked queue,
	// or rejected at Send) — every one also reported through OnDrop
	// with ErrDeadlineExpired, so shed work is accounted, never silent.
	Expired uint64
	// BudgetDeferred counts retransmissions postponed by an empty
	// retry-budget bucket (the frame stays in the window and retries
	// when tokens refill).
	BudgetDeferred uint64
}

// Reliable layers ack/retransmit delivery on top of any Transport: the
// raw fabric guarantees nothing once Chaos (or a real network) is in
// the path, while everything above the TyCOd assumes frames arrive.
// The layer gives at-least-once transmission (per-peer monotone
// sequence numbers, exponential-backoff retransmit with jitter) and
// exactly-once delivery (receiver-side dedup window); ordering is NOT
// restored — TyCO's asynchronous semantics never promised it.
//
// Both endpoints of a link must run the layer: frames are wrapped in
// wire.Packet headers (FData/FAck/FRaw) that only another Reliable can
// unwrap.
type Reliable struct {
	inner Transport
	cfg   ReliableConfig
	recv  chan []byte

	// The peer directory is sharded (DESIGN.md §15): dirMu guards only
	// the two maps, and each sendPeer/recvPeer carries its own mutex.
	// Concurrent sends from different sites to different peers share
	// nothing but a read-lock on the directory; the old layer-wide
	// mutex made every sender convoy on every ack scan.
	// Lock order where both sides meet: sendPeer.mu → recvPeer.mu (the
	// outbound piggyback path); no path locks them in reverse.
	dirMu sync.RWMutex
	sends map[NodeID]*sendPeer
	rcvs  map[NodeID]*recvPeer

	// rng feeds backoff jitter; only the retransmit goroutine steps it.
	rng    uint64
	closed atomic.Bool

	stop     chan struct{}
	loopDone chan struct{}
	recvDone chan struct{}
	recvOnce sync.Once

	dataSent    atomic.Uint64
	retransmits atomic.Uint64
	acksSent    atomic.Uint64
	ackPiggy    atomic.Uint64
	acksRecv    atomic.Uint64
	dupDrops    atomic.Uint64
	failFasts   atomic.Uint64
	rawSent     atomic.Uint64
	parked      atomic.Uint64
	staleDrops  atomic.Uint64
	expired     atomic.Uint64
	budgetDefer atomic.Uint64
}

var _ Transport = (*Reliable)(nil)

// sendPeer is the send-side state for one destination, with its own
// lock so sends to different peers never serialize on each other.
type sendPeer struct {
	mu        sync.Mutex
	nextSeq   uint64
	inflight  map[uint64]*unacked
	parked    []*unacked // held while down (Park mode), seq order
	down      bool
	downSince time.Time  // when down last flipped true
	space     *sync.Cond // on mu; signaled when window space frees or state flips
	// budget token-gates this peer's retransmissions (nil = unlimited).
	budget *backoff.Budget
}

type unacked struct {
	seq      uint64
	packet   []byte // encoded wire.Packet, ready to retransmit
	payload  []byte // original frame, for OnDrop
	deadline time.Time
	// expiry, when non-zero, is the frame's application deadline: past
	// it the frame is shed from the window instead of retransmitted.
	expiry  time.Time
	retries int
}

// recvPeer is the dedup window for one source: floor is the highest
// sequence number below which everything was delivered; seen holds the
// delivered sequence numbers above it. epoch is the highest sender
// incarnation observed; the window is reset when it advances.
//
// The same state doubles as the cumulative acknowledgement for the
// peer's stream: floor + seen IS what we have durably accepted, so an
// ack is just a snapshot of it. ackDirty marks that the peer is owed
// an ack (fresh frame or retransmitted duplicate since the last one);
// ackFresh counts frames covered by the owed ack, so a long burst
// still acks every ackFlushEvery frames even though the dedicated-ack
// flush normally waits for the input stream to go momentarily idle.
type recvPeer struct {
	mu       sync.Mutex
	epoch    uint32
	floor    uint64
	seen     map[uint64]bool
	ackDirty bool
	ackFresh int
}

// ackFlushEvery bounds how many frames a continuous burst can cover
// before a cumulative ack is forced out mid-burst.
const ackFlushEvery = 64

// maxSelAcks bounds the selective-ack list per ack packet; seqs beyond
// it stay in seen and ride the next ack (or the advancing floor).
const maxSelAcks = 64

// NewReliable wraps a transport in the reliable delivery layer.
func NewReliable(inner Transport, cfg ReliableConfig) *Reliable {
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = 15 * time.Millisecond
	}
	if cfg.RetransmitMax <= 0 {
		cfg.RetransmitMax = 500 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 20
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 4096
	}
	if cfg.AckDelay == 0 {
		cfg.AckDelay = time.Millisecond
	}
	r := &Reliable{
		inner:    inner,
		cfg:      cfg,
		recv:     make(chan []byte, 4096),
		sends:    map[NodeID]*sendPeer{},
		rcvs:     map[NodeID]*recvPeer{},
		rng:      mix64(uint64(inner.Self()) + 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		recvDone: make(chan struct{}),
	}
	go r.retransmitLoop()
	go r.recvLoop()
	return r
}

// Self returns the wrapped node id.
func (r *Reliable) Self() NodeID { return r.inner.Self() }

// Recv returns the stream of delivered (deduplicated, unwrapped)
// frames.
func (r *Reliable) Recv() <-chan []byte { return r.recv }

// Stats snapshots the layer's counters.
func (r *Reliable) Stats() ReliableStats {
	return ReliableStats{
		DataSent:       r.dataSent.Load(),
		Retransmits:    r.retransmits.Load(),
		AcksSent:       r.acksSent.Load(),
		AckPiggy:       r.ackPiggy.Load(),
		AcksRecv:       r.acksRecv.Load(),
		DupDrops:       r.dupDrops.Load(),
		FailFasts:      r.failFasts.Load(),
		RawSent:        r.rawSent.Load(),
		Parked:         r.parked.Load(),
		StaleDrops:     r.staleDrops.Load(),
		Expired:        r.expired.Load(),
		BudgetDeferred: r.budgetDefer.Load(),
	}
}

// Unacked reports the number of outbound data frames not yet
// acknowledged by their destination, parked frames included. An acked
// frame is safe on the receiver (journaled before the ack, when the
// receiver journals), so a sender crashing with Unacked()==0 loses no
// sends — site checkpointing gates on this.
func (r *Reliable) Unacked() int {
	n := 0
	for _, p := range r.sendSnapshot() {
		p.mu.Lock()
		n += len(p.inflight) + len(p.parked)
		p.mu.Unlock()
	}
	return n
}

// sendSnapshot copies the send-peer directory under the read lock so
// scans walk peers without holding it.
func (r *Reliable) sendSnapshot() []*sendPeer {
	r.dirMu.RLock()
	defer r.dirMu.RUnlock()
	out := make([]*sendPeer, 0, len(r.sends))
	for _, p := range r.sends {
		out = append(out, p)
	}
	return out
}

// WindowOccupancy reports the fullest per-peer send window's fill
// fraction (0..1) — the admission controller's transport-side
// watermark. Parked frames are excluded: a down peer's backlog is the
// failure detector's business, not an overload signal.
func (r *Reliable) WindowOccupancy() float64 {
	worst := 0.0
	for _, p := range r.sendSnapshot() {
		p.mu.Lock()
		f := float64(len(p.inflight)) / float64(r.cfg.Window)
		p.mu.Unlock()
		if f > worst {
			worst = f
		}
	}
	return worst
}

// AckDebt reports the number of accepted inbound frames whose
// acknowledgement has not left yet (summed over peers) — the
// telemetry fabric samples it as a gauge. A steadily high debt means
// the ack-delay grace window never finds a piggyback ride.
func (r *Reliable) AckDebt() int {
	n := 0
	for _, rp := range r.recvSnapshot() {
		rp.mu.Lock()
		if rp.ackDirty {
			n += rp.ackFresh
		}
		rp.mu.Unlock()
	}
	return n
}

// recvSnapshot copies the recv-peer directory under the read lock.
func (r *Reliable) recvSnapshot() map[NodeID]*recvPeer {
	r.dirMu.RLock()
	defer r.dirMu.RUnlock()
	out := make(map[NodeID]*recvPeer, len(r.rcvs))
	for id, rp := range r.rcvs {
		out[id] = rp
	}
	return out
}

// sendPeerFor returns dst's send-side state, creating it on first use.
// Read-locked fast path; the write lock is taken once per new peer.
func (r *Reliable) sendPeerFor(dst NodeID) *sendPeer {
	r.dirMu.RLock()
	p, ok := r.sends[dst]
	r.dirMu.RUnlock()
	if ok {
		return p
	}
	r.dirMu.Lock()
	defer r.dirMu.Unlock()
	if p, ok = r.sends[dst]; ok {
		return p
	}
	p = &sendPeer{inflight: map[uint64]*unacked{}}
	p.space = sync.NewCond(&p.mu)
	p.budget = backoff.NewBudget(r.cfg.RetryBudgetRate, r.cfg.RetryBudgetBurst)
	r.sends[dst] = p
	return p
}

// recvPeerFor returns src's dedup window, creating it with the given
// initial epoch on first contact.
func (r *Reliable) recvPeerFor(src NodeID, epoch uint32) *recvPeer {
	r.dirMu.RLock()
	rp, ok := r.rcvs[src]
	r.dirMu.RUnlock()
	if ok {
		return rp
	}
	r.dirMu.Lock()
	defer r.dirMu.Unlock()
	if rp, ok = r.rcvs[src]; ok {
		return rp
	}
	rp = &recvPeer{epoch: epoch, seen: map[uint64]bool{}}
	r.rcvs[src] = rp
	return rp
}

// Send transmits a frame with delivery tracking: it is retransmitted
// until acked or the peer is declared down. Blocks while the in-flight
// window is full; fails fast with ErrPeerDown for suspected peers.
func (r *Reliable) Send(dst NodeID, frame []byte) error {
	return r.SendWithDeadline(dst, frame, time.Time{})
}

// SendWithDeadline is Send with an application deadline: a frame whose
// expiry passes before its ack arrives is shed from the send window
// (reported through OnDrop with ErrDeadlineExpired) instead of being
// retransmitted forever. An already-expired frame is rejected here,
// before it claims window space or a sequence number. The zero expiry
// means no deadline.
func (r *Reliable) SendWithDeadline(dst NodeID, frame []byte, expiry time.Time) error {
	if !expiry.IsZero() && !expiry.After(time.Now()) {
		r.expired.Add(1)
		if r.cfg.OnDrop != nil {
			r.cfg.OnDrop(dst, frame, ErrDeadlineExpired)
		}
		return ErrDeadlineExpired
	}
	p := r.sendPeerFor(dst)
	p.mu.Lock()
	for !p.down && !r.closed.Load() && len(p.inflight) >= r.cfg.Window {
		p.space.Wait()
	}
	if r.closed.Load() {
		p.mu.Unlock()
		return errClosed
	}
	if p.down && !r.cfg.Park {
		p.mu.Unlock()
		r.failFasts.Add(1)
		return ErrPeerDown
	}
	p.nextSeq++
	out := wire.Packet{Type: wire.FData, Src: r.Self(), Epoch: r.cfg.Epoch, Seq: p.nextSeq, Payload: frame}
	// Piggyback locks the recv side while the send side is held —
	// the one place both shards meet (lock order sendPeer → recvPeer).
	if r.piggyback(dst, &out) {
		r.ackPiggy.Add(1)
	}
	pkt := out.Encode()
	u := &unacked{
		seq:      p.nextSeq,
		packet:   pkt,
		payload:  frame,
		deadline: time.Now().Add(r.cfg.RetransmitTimeout),
		expiry:   expiry,
	}
	if p.down {
		// Park mode: hold the frame until the peer is revived; its
		// sequence number is claimed now so re-injection keeps order.
		p.parked = append(p.parked, u)
		p.mu.Unlock()
		r.parked.Add(1)
		return nil
	}
	p.inflight[u.seq] = u
	p.mu.Unlock()
	r.dataSent.Add(1)
	// Transmission failures are treated as loss: the retransmitter owns
	// recovery, and the failure detector owns giving up.
	_ = r.inner.Send(dst, pkt)
	return nil
}

// SendBestEffort transmits a frame outside the sequence space: no ack,
// no retransmit, no dedup. Heartbeats use this — their loss is exactly
// the signal the failure detector exists to observe, and retransmitting
// them to a dead peer would be self-defeating.
func (r *Reliable) SendBestEffort(dst NodeID, frame []byte) error {
	if r.closed.Load() {
		return errClosed
	}
	out := wire.Packet{Type: wire.FRaw, Src: r.Self(), Epoch: r.cfg.Epoch, Payload: frame}
	if r.piggyback(dst, &out) {
		r.ackPiggy.Add(1)
	}
	r.rawSent.Add(1)
	return r.inner.Send(dst, out.Encode())
}

// piggyback folds any ack owed to dst into an outbound packet,
// settling the debt: a batch of N inbound data frames answered by one
// outbound packet costs zero dedicated ack frames.
func (r *Reliable) piggyback(dst NodeID, out *wire.Packet) bool {
	r.dirMu.RLock()
	rp, ok := r.rcvs[dst]
	r.dirMu.RUnlock()
	if !ok {
		return false
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if !rp.ackDirty {
		return false
	}
	out.AckEpoch = rp.epoch
	out.AckFloor = rp.floor
	out.AckSeqs = selAcksLocked(rp)
	rp.ackDirty = false
	rp.ackFresh = 0
	return true
}

// selAcksLocked snapshots the delivered-above-floor seqs, ascending,
// capped at maxSelAcks (the lowest ones: oldest in the sender's
// window). Uncovered seqs remain in seen and ride a later ack.
func selAcksLocked(rp *recvPeer) []uint64 {
	if len(rp.seen) == 0 {
		return nil
	}
	sel := make([]uint64, 0, len(rp.seen))
	for s := range rp.seen {
		sel = append(sel, s)
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i] < sel[j] })
	if len(sel) > maxSelAcks {
		sel = sel[:maxSelAcks]
	}
	return sel
}

// applyAck clears in-flight frames covered by ack state received from
// src: everything at or below the cumulative floor plus the
// selectively acked seqs above it.
func (r *Reliable) applyAck(src NodeID, ackEpoch uint32, floor uint64, sel []uint64) {
	if ackEpoch != r.cfg.Epoch {
		// Ack state addressed to a previous incarnation of this node;
		// its sequence space is not ours.
		r.staleDrops.Add(1)
		return
	}
	r.dirMu.RLock()
	p, ok := r.sends[src]
	r.dirMu.RUnlock()
	if !ok {
		return
	}
	cleared := 0
	p.mu.Lock()
	if floor > 0 {
		for seq := range p.inflight {
			if seq <= floor {
				delete(p.inflight, seq)
				cleared++
			}
		}
	}
	for _, s := range sel {
		if _, inflight := p.inflight[s]; inflight {
			delete(p.inflight, s)
			cleared++
		}
	}
	if cleared > 0 {
		p.space.Broadcast()
	}
	p.mu.Unlock()
	if cleared > 0 {
		r.acksRecv.Add(uint64(cleared))
	}
}

// flushAcks emits one dedicated cumulative-ack packet per peer owed
// one. The recv loop calls it whenever the input stream goes
// momentarily idle — the end of a burst — so N data frames normally
// cost a single ack frame (or none, if reverse traffic already
// piggybacked the state).
func (r *Reliable) flushAcks() {
	type owed struct {
		dst NodeID
		pkt []byte
	}
	var out []owed
	for src, rp := range r.recvSnapshot() {
		rp.mu.Lock()
		if !rp.ackDirty {
			rp.mu.Unlock()
			continue
		}
		rp.ackDirty = false
		rp.ackFresh = 0
		pkt := wire.Packet{Type: wire.FAck, Src: r.Self(), Epoch: rp.epoch, AckEpoch: rp.epoch, AckFloor: rp.floor, AckSeqs: selAcksLocked(rp)}
		rp.mu.Unlock()
		out = append(out, owed{dst: src, pkt: pkt.Encode()})
	}
	for _, a := range out {
		r.acksSent.Add(1)
		_ = r.inner.Send(a.dst, a.pkt)
	}
}

// SetPeerDown declares a peer dead: its in-flight frames are abandoned
// (reported through OnDrop) and subsequent Sends fail fast with
// ErrPeerDown. The node's failure detector calls this on suspicion.
func (r *Reliable) SetPeerDown(dst NodeID) {
	p := r.sendPeerFor(dst)
	p.mu.Lock()
	failed := r.markDownLocked(p)
	p.mu.Unlock()
	r.reportDrops(dst, failed)
}

// SetPeerUp clears the peer-down state (the failure detector trusts
// the peer again, e.g. after a partition heals or a supervised node
// restarts). In Park mode the frames held while the peer was down are
// re-injected into the in-flight window and transmitted.
func (r *Reliable) SetPeerUp(dst NodeID) {
	now := time.Now()
	p := r.sendPeerFor(dst)
	p.mu.Lock()
	p.down = false
	parked := p.parked
	p.parked = nil
	// Frames whose deadline lapsed while the peer was down are shed
	// here rather than re-injected: the application declared them
	// worthless past their expiry, and retransmitting them would only
	// add load to a peer that just came back.
	var revived, dead []*unacked
	for _, u := range parked {
		if !u.expiry.IsZero() && !u.expiry.After(now) {
			dead = append(dead, u)
			continue
		}
		u.retries = 0
		u.deadline = now.Add(r.cfg.RetransmitTimeout)
		p.inflight[u.seq] = u
		revived = append(revived, u)
	}
	p.space.Broadcast()
	p.mu.Unlock()
	r.reportExpired(dst, dead)
	for _, u := range revived {
		r.dataSent.Add(1)
		_ = r.inner.Send(dst, u.packet)
	}
}

// PeerDown reports whether dst is currently declared down.
func (r *Reliable) PeerDown(dst NodeID) bool {
	r.dirMu.RLock()
	p, ok := r.sends[dst]
	r.dirMu.RUnlock()
	if !ok {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// DownPeers reports every peer currently declared down, with the time
// each went down. The stall detector uses it to suppress false
// positives (a site wedged on a partitioned peer is the partition's
// fault, not a scheduler stall) and /statusz lists the keys.
func (r *Reliable) DownPeers() map[NodeID]time.Time {
	r.dirMu.RLock()
	ids := make([]NodeID, 0, len(r.sends))
	peers := make([]*sendPeer, 0, len(r.sends))
	for id, p := range r.sends {
		ids = append(ids, id)
		peers = append(peers, p)
	}
	r.dirMu.RUnlock()
	var out map[NodeID]time.Time
	for i, p := range peers {
		p.mu.Lock()
		down, since := p.down, p.downSince
		p.mu.Unlock()
		if down {
			if out == nil {
				out = map[NodeID]time.Time{}
			}
			out[ids[i]] = since
		}
	}
	return out
}

// markDownLocked (p.mu held) flips a peer down and strips its
// in-flight frames: parked for later re-injection in Park mode,
// returned for OnDrop reporting otherwise.
func (r *Reliable) markDownLocked(p *sendPeer) []*unacked {
	if !p.down {
		p.downSince = time.Now()
	}
	p.down = true
	stripped := make([]*unacked, 0, len(p.inflight))
	for _, u := range p.inflight {
		stripped = append(stripped, u)
	}
	p.inflight = map[uint64]*unacked{}
	p.space.Broadcast()
	if r.cfg.Park {
		sort.Slice(stripped, func(i, j int) bool { return stripped[i].seq < stripped[j].seq })
		p.parked = append(p.parked, stripped...)
		r.parked.Add(uint64(len(stripped)))
		return nil
	}
	return stripped
}

func (r *Reliable) reportDrops(dst NodeID, failed []*unacked) {
	if len(failed) == 0 {
		return
	}
	r.failFasts.Add(uint64(len(failed)))
	if r.cfg.OnDrop != nil {
		for _, u := range failed {
			r.cfg.OnDrop(dst, u.payload, ErrPeerDown)
		}
	}
}

// retransmitLoop scans the in-flight windows and resends frames whose
// ack deadline passed, with exponential backoff plus jitter; a frame
// out of retries takes its whole peer down.
func (r *Reliable) retransmitLoop() {
	defer close(r.loopDone)
	tick := r.cfg.RetransmitTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		type resend struct {
			dst NodeID
			pkt []byte
		}
		var resends []resend
		type failure struct {
			dst    NodeID
			failed []*unacked
		}
		var failures []failure
		type expiry struct {
			dst     NodeID
			expired []*unacked
		}
		var expiries []expiry
		deferred := 0
		r.dirMu.RLock()
		ids := make([]NodeID, 0, len(r.sends))
		peers := make([]*sendPeer, 0, len(r.sends))
		for id, p := range r.sends {
			ids = append(ids, id)
			peers = append(peers, p)
		}
		r.dirMu.RUnlock()
		for i, p := range peers {
			dst := ids[i]
			p.mu.Lock()
			if p.down {
				p.mu.Unlock()
				continue
			}
			exhausted := false
			var dead []*unacked
			for _, u := range p.inflight {
				// Expiry is checked for every scanned frame, not only
				// past-deadline ones: a frame whose deadline passed mid
				// backoff wait must stop occupying the window too.
				if !u.expiry.IsZero() && !u.expiry.After(now) {
					dead = append(dead, u)
					continue
				}
				if u.deadline.After(now) {
					continue
				}
				if u.retries >= r.cfg.MaxRetries {
					exhausted = true
					break
				}
				// Token-gated retries: an empty budget defers the frame
				// one timeout (no retry spent) so a struggling peer sees
				// a bounded trickle, not the whole backlog at once.
				if !p.budget.AllowAt(now) {
					u.deadline = now.Add(r.cfg.RetransmitTimeout)
					deferred++
					continue
				}
				u.retries++
				// Jittered exponential growth via the shared policy;
				// Step is pure, so calling it under the lock is fine.
				pol := backoff.Policy{
					Initial: r.cfg.RetransmitTimeout,
					Max:     r.cfg.RetransmitMax,
				}
				u.deadline = now.Add(pol.Step(u.retries, &r.rng))
				resends = append(resends, resend{dst: dst, pkt: u.packet})
			}
			if len(dead) > 0 {
				for _, u := range dead {
					delete(p.inflight, u.seq)
				}
				p.space.Broadcast()
				expiries = append(expiries, expiry{dst: dst, expired: dead})
			}
			if exhausted {
				failures = append(failures, failure{dst: dst, failed: r.markDownLocked(p)})
			}
			p.mu.Unlock()
		}
		if deferred > 0 {
			r.budgetDefer.Add(uint64(deferred))
		}
		for _, e := range expiries {
			r.reportExpired(e.dst, e.expired)
		}
		for _, s := range resends {
			r.retransmits.Add(1)
			_ = r.inner.Send(s.dst, s.pkt)
		}
		for _, f := range failures {
			r.reportDrops(f.dst, f.failed)
		}
	}
}

// reportExpired accounts deadline-shed frames through the stats and
// the OnDrop signal with the typed ErrDeadlineExpired.
func (r *Reliable) reportExpired(dst NodeID, expired []*unacked) {
	if len(expired) == 0 {
		return
	}
	r.expired.Add(uint64(len(expired)))
	if r.cfg.OnDrop != nil {
		for _, u := range expired {
			r.cfg.OnDrop(dst, u.payload, ErrDeadlineExpired)
		}
	}
}

// recvLoop unwraps incoming packets: data is deduplicated and owed a
// cumulative ack, incoming ack state clears the in-flight window, raw
// frames pass through. Dedicated acks are coalesced: they flush when
// the input stream goes momentarily idle (end of a burst) or every
// ackFlushEvery frames within a burst, so N data frames cost O(1) ack
// packets instead of N.
func (r *Reliable) recvLoop() {
	defer close(r.recvDone)
	defer r.recvOnce.Do(func() { close(r.recv) })
	in := r.inner.Recv()
	var ackTimer *time.Timer
	armed := false
	disarm := func() {
		if armed {
			if !ackTimer.Stop() {
				select {
				case <-ackTimer.C:
				default:
				}
			}
			armed = false
		}
	}
	for {
		var frame []byte
		var ok bool
		select {
		case frame, ok = <-in:
		default:
			// Input momentarily idle. Before settling ack debts with
			// dedicated packets, hold a grace window so outbound traffic
			// (e.g. a reply batch forming in the coalescer) can piggyback
			// them. The timer is armed once per debt accumulation — NOT
			// re-armed per frame — so a trickle of inbound frames cannot
			// defer acks past one window and trip retransmits.
			if r.cfg.AckDelay > 0 && r.ackDebt() {
				if !armed {
					if ackTimer == nil {
						ackTimer = time.NewTimer(r.cfg.AckDelay)
					} else {
						ackTimer.Reset(r.cfg.AckDelay)
					}
					armed = true
				}
				select {
				case frame, ok = <-in:
				case <-ackTimer.C:
					armed = false
					r.flushAcks()
					continue
				case <-r.stop:
					return
				}
			} else {
				disarm()
				r.flushAcks()
				select {
				case frame, ok = <-in:
				case <-r.stop:
					return
				}
			}
		}
		if !ok {
			return
		}
		if !r.handleFrame(frame) {
			return
		}
	}
}

// ackDebt reports whether any peer has unflushed ack state.
func (r *Reliable) ackDebt() bool {
	for _, rp := range r.recvSnapshot() {
		rp.mu.Lock()
		dirty := rp.ackDirty
		rp.mu.Unlock()
		if dirty {
			return true
		}
	}
	return false
}

// handleFrame processes one raw frame off the wrapped transport; false
// means the layer is stopping.
func (r *Reliable) handleFrame(frame []byte) bool {
	pkt, err := wire.DecodePacket(frame)
	if err != nil {
		// Not a reliable-layer packet (peer without the layer); pass
		// it through untouched.
		return r.push(frame)
	}
	// Ack state piggybacked on data/raw packets is consumed first so
	// window space frees before any delivery work. (Dedicated FAck
	// packets are handled in the switch below.)
	if pkt.Type != wire.FAck && (pkt.AckFloor > 0 || len(pkt.AckSeqs) > 0) {
		r.applyAck(pkt.Src, pkt.AckEpoch, pkt.AckFloor, pkt.AckSeqs)
	}
	switch pkt.Type {
	case wire.FData:
		rp := r.recvPeerFor(pkt.Src, pkt.Epoch)
		rp.mu.Lock()
		if pkt.Epoch < rp.epoch {
			// Straggler from a dead incarnation: drop it unacked —
			// the current incarnation must not see pre-crash ops,
			// and there is no sender left to ack to.
			rp.mu.Unlock()
			r.staleDrops.Add(1)
			return true
		}
		if pkt.Epoch > rp.epoch {
			// The peer restarted under a new incarnation with a
			// fresh sequence space.
			rp.epoch = pkt.Epoch
			rp.floor = 0
			rp.seen = map[uint64]bool{}
			rp.ackDirty = false
			rp.ackFresh = 0
		}
		dup := pkt.Seq <= rp.floor || rp.seen[pkt.Seq]
		rp.mu.Unlock()
		// Write-ahead discipline: a fresh frame is journaled
		// (OnAccept) before any ack state covering it can exist, so
		// acked ⇒ journaled. On error nothing is recorded — the seq
		// stays out of floor/seen, no ack will cover it, and the
		// sender's retransmit gets a fresh acceptance attempt (were it
		// marked seen first, the retransmit would be "acked" as a
		// duplicate without ever having been journaled or delivered).
		if !dup && r.cfg.OnAccept != nil {
			if err := r.cfg.OnAccept(pkt.Src, pkt.Payload); err != nil {
				return true
			}
		}
		rp.mu.Lock()
		if !dup {
			rp.seen[pkt.Seq] = true
			for rp.seen[rp.floor+1] {
				delete(rp.seen, rp.floor+1)
				rp.floor++
			}
			if len(rp.seen) > r.cfg.DedupWindow {
				// A gap outlived the window: its sender gave it
				// up. Slide past the gap so memory stays bounded.
				min := pkt.Seq
				for s := range rp.seen {
					if s < min {
						min = s
					}
				}
				rp.floor = min
				delete(rp.seen, min)
				for rp.seen[rp.floor+1] {
					rp.floor++
					delete(rp.seen, rp.floor)
				}
			}
		}
		// Fresh or duplicate, the sender is owed ack state covering
		// this seq (a duplicate usually means our previous ack was
		// lost). It flushes at burst end, mid-burst every
		// ackFlushEvery frames, or piggybacked on reverse traffic —
		// whichever comes first.
		rp.ackDirty = true
		rp.ackFresh++
		forceFlush := rp.ackFresh >= ackFlushEvery
		rp.mu.Unlock()
		if forceFlush {
			r.flushAcks()
		}
		if dup {
			r.dupDrops.Add(1)
			return true
		}
		return r.push(pkt.Payload)
	case wire.FAck:
		r.applyAck(pkt.Src, pkt.Epoch, pkt.AckFloor, pkt.AckSeqs)
	case wire.FRaw:
		return r.push(pkt.Payload)
	}
	return true
}

// push hands a delivered frame to the consumer; false means the layer
// is stopping.
func (r *Reliable) push(frame []byte) bool {
	select {
	case r.recv <- frame:
		return true
	case <-r.stop:
		return false
	}
}

// Close stops the layer's goroutines and closes the delivered-frame
// stream. The wrapped transport is closed too: the layer owns it.
func (r *Reliable) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	// Senders blocked on window space re-check closed under their
	// peer's lock, so broadcasting under it cannot miss a waiter.
	for _, p := range r.sendSnapshot() {
		p.mu.Lock()
		p.space.Broadcast()
		p.mu.Unlock()
	}
	close(r.stop)
	err := r.inner.Close()
	<-r.loopDone
	<-r.recvDone
	r.recvOnce.Do(func() { close(r.recv) })
	return err
}
