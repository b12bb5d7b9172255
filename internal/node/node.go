// Package node implements DiTyCO nodes (paper section 5, Fig. 4): "a
// pool of sites running concurrently, a dedicated communication daemon
// (TyCOd), and a user interface daemon (TyCOi)", one node per IP node.
// Sites, the TyCOd and the TyCOi run as goroutines sharing the node's
// address space, exactly as the paper's threads share a Unix process.
//
// The TyCOd implements the three-step remote interaction of the paper
// (outgoing queue → daemon → remote daemon → incoming queue) and the
// local fast path: "Local interactions are optimized using shared
// memory" — same-node traffic skips the transport and the byte-level
// marshalling, handing decoded structures directly to the destination
// site's incoming queue (σ-translation still applies, because each
// site owns a private heap).
//
// Each site runs on its own goroutine (site.Run), and Go's runtime
// multiplexes those goroutines over the cores — the paper's thread per
// site, with Go's work-stealing scheduler standing in for the OS
// (DESIGN.md §15).
package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/journal"
	"repro/internal/membership"
	"repro/internal/nameservice"
	"repro/internal/site"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// siteIDBits partitions global site identifiers: the high bits are the
// node id, the low bits a per-node counter, so sites are unique
// network-wide without coordination.
const siteIDBits = 16

// Config configures a node.
type Config struct {
	ID        uint32
	NS        nameservice.Service
	Transport transport.Transport
	// Out is the default I/O port for sites without their own.
	Out io.Writer
	// ForceMarshalLocal disables the shared-memory fast path: local
	// deliveries are encoded and decoded as if they crossed the
	// network (ablation for experiment E2).
	ForceMarshalLocal bool
	// OnControl receives FTerm/FHeartbeat payloads (termination and
	// failure detectors register here).
	OnControl func(t wire.FrameType, src uint32, payload []byte)
	// Reliability, when non-nil, layers ack/retransmit delivery
	// (transport.Reliable) between the TyCOd and the transport: frames
	// survive lossy links, and sends to dead peers fail fast instead of
	// queueing forever. Heartbeats bypass the layer (best-effort) —
	// their loss IS the failure signal.
	Reliability *transport.ReliableConfig
	// OnDeliveryFailure is told about every frame the node gave up
	// delivering to dst (the peer is down). Envelope content is already
	// lost at this layer; the callback is a signal for reconfiguration,
	// not a recovery path.
	OnDeliveryFailure func(dst uint32, err error)
	// Epoch is the node's incarnation number, stamped on reliable-layer
	// packets. A supervisor restarting a crashed node bumps it so peers
	// reset their per-sender receive state and fence the dead
	// incarnation's stragglers.
	Epoch uint32
	// Journals, when non-nil, opens a write-ahead log per spawned site:
	// mobility operations are journaled before they are acknowledged,
	// and sites checkpoint into the log, enabling supervised restart.
	Journals journal.Factory
	// CheckpointEvery is handed to spawned sites (site.Config).
	CheckpointEvery int
	// LeaseRefresh is handed to spawned sites: the interval at which
	// each site renews its name-service lease.
	LeaseRefresh time.Duration
	// Supervise restarts sites that crash (panic or internal error),
	// replaying their journal under an incremented epoch. Requires
	// Journals.
	Supervise bool
	// Batch tunes the outbound frame coalescer (on by default; see
	// BatchConfig).
	Batch BatchConfig
	// Telemetry, when non-nil, turns on the observability fabric for
	// this node and its sites: metrics, mobility tracing, and the
	// flight recorder (DESIGN.md §11). Nil costs one pointer test per
	// instrumented call.
	Telemetry *telemetry.Telemetry
	// CrashDumpDir, when set with Telemetry on, is where a supervised
	// site crash drops a JSON dump of the node's telemetry snapshot —
	// the flight recorder's black-box moment, captured before the
	// restart clobbers the evidence.
	CrashDumpDir string
	// Introspect, when non-nil, serves the node's observability plane
	// (DESIGN.md §12): an HTTP endpoint with /metrics, /healthz,
	// /statusz, /debug/flightrecorder and /debug/pprof, plus the stall
	// detector sampling every site's scheduler state. Implies
	// Telemetry — a default handle is created when none was given.
	Introspect *IntrospectConfig
	// Admission, when non-nil, turns on the overload-protection plane
	// (DESIGN.md §14): a CoDel-style controller watches site-inbox
	// sojourn and occupancy plus the reliable layer's send-window
	// occupancy, and under standing overload the node sheds expired
	// work, answers fetches with retryable pushback, and rejects new
	// spawns with admission.ErrOverloaded. Zero-value config selects
	// the defaults.
	Admission *admission.Config
	// OpDeadline is handed to spawned sites (site.Config.OpDeadline):
	// every mobility operation a site originates carries an absolute
	// now+OpDeadline expiry, propagated end-to-end and enforced by the
	// transport (expired frames stop retransmitting) and the receiver
	// (expired deliveries shed unapplied).
	OpDeadline time.Duration
}

// maxRestarts bounds supervised restarts per site: a deterministically
// crashing program must not flap forever.
const maxRestarts = 3

// Node is one DiTyCO node.
type Node struct {
	cfg Config
	// tr is the effective transport: cfg.Transport, possibly wrapped in
	// the reliable delivery layer.
	tr   transport.Transport
	rel  *transport.Reliable
	coal *coalescer
	tel  *telemetry.Telemetry  // nil when telemetry is off
	adm  *admission.Controller // nil when admission control is off

	// tables is the copy-on-write site directory: every delivery loads
	// the pointer lock-free, so the hot path never convoys on mu.
	// Writers (spawn, recover, drain, stop) clone-and-publish under mu,
	// which only serializes the rare mutations against each other.
	tables atomic.Pointer[siteTable]

	mu       sync.Mutex
	nextSite uint32
	err      error

	stop chan struct{}
	done chan struct{}

	// onControl holds the live control-frame handler.
	onControl atomic.Pointer[func(wire.FrameType, uint32, []byte)]

	// mem is the gossip membership agent (membership.go); nil until
	// AttachMembership. suspectSince records when each peer entered
	// suspicion, for the stall detector's outage suppression.
	mem          atomic.Pointer[membership.M]
	suspectMu    sync.Mutex
	suspectSince map[uint32]time.Time

	// Drain state (drain.go): a draining node refuses new sites, and
	// forwards maps evacuated site ids to their adopting node.
	// fwdCount mirrors len(forwards) so the per-envelope check on the
	// dispatch path is one atomic load when no drain ever happened.
	draining atomic.Bool
	forwards map[uint32]uint32 // guarded by mu
	fwdCount atomic.Int32

	// Daemon statistics.
	localDeliveries  atomic.Uint64
	remoteDeliveries atomic.Uint64
	deliveryFailures atomic.Uint64

	// Introspection plane (introspect.go). strikes counts supervised
	// restarts per site name (guarded by mu); the stall fields hold the
	// detector's latest verdict.
	intro     *telemetry.HTTPServer
	strikes   map[string]int
	stallMu   sync.Mutex
	stalls    []telemetry.StallReport
	stallSeen map[stallKey]bool

	// Analytics plane (introspect.go, DESIGN.md §17): the time-series
	// ring and the SLO tracker its ticker evaluates. Guarded by mu;
	// nil when introspection or telemetry is off.
	ts         *telemetry.TimeSeries
	sloTracker *slo.Tracker
}

// siteTable is one immutable snapshot of the node's site directory.
type siteTable struct {
	sites    map[uint32]*site.Site
	byName   map[string]*site.Site
	journals map[uint32]*site.Journal
}

func (t *siteTable) clone() *siteTable {
	next := &siteTable{
		sites:    make(map[uint32]*site.Site, len(t.sites)),
		byName:   make(map[string]*site.Site, len(t.byName)),
		journals: make(map[uint32]*site.Journal, len(t.journals)),
	}
	for id, s := range t.sites {
		next.sites[id] = s
	}
	for name, s := range t.byName {
		next.byName[name] = s
	}
	for id, jl := range t.journals {
		next.journals[id] = jl
	}
	return next
}

// table returns the current site-directory snapshot (never nil).
func (n *Node) table() *siteTable { return n.tables.Load() }

// mutateTables clones the current directory, applies fn, and publishes
// the clone. Callers must hold n.mu — writers serialize on it so no
// clone can overwrite another's publication.
func (n *Node) mutateTables(fn func(t *siteTable)) {
	next := n.tables.Load().clone()
	fn(next)
	n.tables.Store(next)
}

// LocalDeliveries reports same-node deliveries handled by the daemon.
func (n *Node) LocalDeliveries() uint64 { return n.localDeliveries.Load() }

// RemoteDeliveries reports deliveries that arrived via the transport.
func (n *Node) RemoteDeliveries() uint64 { return n.remoteDeliveries.Load() }

// New creates a node; its TyCOd starts immediately.
func New(cfg Config) *Node {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	n := &Node{
		cfg:  cfg,
		tr:   cfg.Transport,
		tel:  cfg.Telemetry,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	n.tables.Store(&siteTable{
		sites:    map[uint32]*site.Site{},
		byName:   map[string]*site.Site{},
		journals: map[uint32]*site.Journal{},
	})
	if cfg.Introspect != nil && n.tel == nil {
		// Introspection implies telemetry: /metrics and the flight
		// recorder need instruments to read.
		n.tel = telemetry.New(cfg.ID, telemetry.Config{})
	}
	if cfg.Reliability != nil {
		relCfg := *cfg.Reliability
		relCfg.Epoch = cfg.Epoch
		userDrop := relCfg.OnDrop
		relCfg.OnDrop = func(dst transport.NodeID, frame []byte, err error) {
			n.deliveryFailures.Add(1)
			if cb := n.cfg.OnDeliveryFailure; cb != nil {
				cb(dst, err)
			}
			if userDrop != nil {
				userDrop(dst, frame, err)
			}
		}
		if cfg.Journals != nil {
			// Accept-before-ack: a mobility frame is journaled in its
			// destination site's log before the ack goes out, so "acked"
			// implies "survives a crash". A rejected accept withholds the
			// ack and the sender retransmits.
			userAccept := relCfg.OnAccept
			relCfg.OnAccept = func(src transport.NodeID, frame []byte) error {
				if err := n.acceptFrame(src, frame); err != nil {
					return err
				}
				if userAccept != nil {
					return userAccept(src, frame)
				}
				return nil
			}
		}
		n.rel = transport.NewReliable(cfg.Transport, relCfg)
		n.tr = n.rel
	}
	n.coal = newCoalescer(n, cfg.Batch)
	n.onControl.Store(&cfg.OnControl)
	if cfg.Admission != nil {
		n.adm = admission.New(*cfg.Admission)
		go n.admissionLoop()
	}
	go n.tycod()
	if cfg.Introspect != nil {
		if err := n.startIntrospection(*cfg.Introspect); err != nil {
			n.setErr(fmt.Errorf("node %d: introspection: %w", n.cfg.ID, err))
		}
	}
	return n
}

// Reliable exposes the node's reliable delivery layer (nil when the
// Reliability knob is off) — the failure detector feeds peer-down
// transitions into it, and stats reporting reads its counters.
func (n *Node) Reliable() *transport.Reliable { return n.rel }

// Admission exposes the node's admission controller (nil when overload
// protection is off). Clients gate optional work on its State; the
// nameservice admission wrapper shares it.
func (n *Node) Admission() *admission.Controller { return n.adm }

// admissionLoop feeds the controller's occupancy watermarks: the worst
// site-inbox fill and the worst reliable send-window fill, sampled at a
// quarter of the CoDel window so a filling queue is seen well within
// one verdict interval. Sojourn samples arrive separately, pushed from
// each site's handle path.
func (n *Node) admissionLoop() {
	period := n.adm.Config().Window / 4
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			worstInbox := 0.0
			for _, s := range n.Sites() {
				if f := s.InboxOccupancy(); f > worstInbox {
					worstInbox = f
				}
			}
			window := 0.0
			if n.rel != nil {
				window = n.rel.WindowOccupancy()
			}
			n.adm.SetOccupancy(worstInbox, window)
			// Fold the sites' lock-free sojourn minima into the
			// controller's window (they are sampled by every site
			// goroutine, so no single run loop owns the clock).
			n.adm.Tick(time.Now())
		case <-n.stop:
			return
		}
	}
}

// ExpiredDrops sums the deliveries every site shed because their
// deadline had passed before they were handled (transport-level expiry
// is counted separately, in ReliableStats.Expired).
func (n *Node) ExpiredDrops() uint64 {
	var total uint64
	for _, s := range n.Sites() {
		total += s.ExpiredDrops()
	}
	return total
}

// Telemetry exposes the node's telemetry handle (nil when off).
func (n *Node) Telemetry() *telemetry.Telemetry { return n.tel }

// TelemetrySnapshot captures the node's metrics and retained trace
// events. Pull-time state that has no hot-path instrument — reliable
// layer counters, ack debt, daemon delivery totals — is mirrored into
// the registry here, so sampling cost is paid by the reader, not the
// message path.
func (n *Node) TelemetrySnapshot() telemetry.Snapshot {
	if n.tel == nil {
		return telemetry.Snapshot{Metrics: map[string]float64{}}
	}
	n.refreshTelemetryGauges()
	return n.tel.Snapshot()
}

// refreshTelemetryGauges mirrors pull-time state into the registry —
// shared by TelemetrySnapshot and the /metrics scrape path, so both
// expose the same reliable-layer and daemon gauges.
func (n *Node) refreshTelemetryGauges() {
	if n.tel == nil {
		return
	}
	n.tel.SetGauge("deliveries.local", int64(n.localDeliveries.Load()))
	n.tel.SetGauge("deliveries.remote", int64(n.remoteDeliveries.Load()))
	n.tel.SetGauge("deliveries.failed", int64(n.deliveryFailures.Load()))
	if n.rel != nil {
		st := n.rel.Stats()
		n.tel.SetGauge("rel.data_sent", int64(st.DataSent))
		n.tel.SetGauge("rel.retransmits", int64(st.Retransmits))
		n.tel.SetGauge("rel.acks_sent", int64(st.AcksSent))
		n.tel.SetGauge("rel.ack_piggy", int64(st.AckPiggy))
		n.tel.SetGauge("rel.dup_drops", int64(st.DupDrops))
		n.tel.SetGauge("rel.fail_fasts", int64(st.FailFasts))
		n.tel.SetGauge("rel.unacked", int64(n.rel.Unacked()))
		n.tel.SetGauge("rel.ack_debt", int64(n.rel.AckDebt()))
		n.tel.SetGauge("rel.expired", int64(st.Expired))
		n.tel.SetGauge("rel.budget_deferred", int64(st.BudgetDeferred))
	}
	if n.adm != nil {
		n.tel.SetGauge("overload.state", int64(n.adm.State()))
		n.tel.SetGauge("admission.shed_total", int64(n.adm.Sheds()))
		n.tel.SetGauge("deadline.expired_total", int64(n.ExpiredDrops()))
	}
	if n.cfg.NS != nil {
		// Inspect flattens whatever decorator chain this node's NS is
		// built from (cache → breaker → sharded/client); absent layers
		// simply export no gauges.
		in := nameservice.Inspect(n.cfg.NS)
		if in.HasBreaker {
			n.tel.SetGauge("ns.breaker_state", int64(in.BreakerState))
			n.tel.SetGauge("ns.breaker_trips", int64(in.BreakerTrips))
			n.tel.SetGauge("ns.breaker_fast_fails", int64(in.BreakerFastFails))
		}
		if in.HasMap {
			n.tel.SetGauge("ns.map_version", int64(in.MapVersion))
			n.tel.SetGauge("ns.transitions", int64(in.Transitions))
			n.tel.SetGauge("ns.forwards", int64(in.Forwards))
			n.tel.SetGauge("ns.migrated", int64(in.Migrated))
			for shard, keys := range in.ShardKeys {
				n.tel.SetGauge(fmt.Sprintf("ns.shard.%d.keys", shard), int64(keys.Total()))
			}
		}
		if in.HasCache {
			n.tel.SetGauge("ns.cache_hits", int64(in.Cache.Hits))
			n.tel.SetGauge("ns.cache_neg_hits", int64(in.Cache.NegHits))
			n.tel.SetGauge("ns.cache_misses", int64(in.Cache.Misses))
			n.tel.SetGauge("ns.cache_flushed", int64(in.Cache.Flushed))
			n.tel.SetGauge("ns.cache_entries", int64(in.Cache.Entries))
			// The registry holds integers; export the ratio in basis
			// points (9000 = 90%).
			n.tel.SetGauge("ns.cache_hit_bp", int64(in.Cache.HitRatio()*10000))
		}
	}
	if m := n.mem.Load(); m != nil {
		var alive, suspect, dead, left int64
		for _, mi := range m.Snapshot() {
			switch mi.State {
			case membership.StateAlive, membership.StateLeaving:
				alive++
			case membership.StateSuspect:
				suspect++
			case membership.StateDead:
				dead++
			case membership.StateLeft:
				left++
			}
		}
		n.tel.SetGauge("membership.alive", alive)
		n.tel.SetGauge("membership.suspect", suspect)
		n.tel.SetGauge("membership.dead", dead)
		n.tel.SetGauge("membership.left", left)
		n.tel.SetGauge("membership.pending_updates", int64(m.PendingUpdates()))
		st := m.Stats()
		n.tel.SetGauge("membership.probes_sent", int64(st.ProbesSent))
		n.tel.SetGauge("membership.pingreqs_sent", int64(st.PingReqsSent))
		n.tel.SetGauge("membership.piggybacked", int64(st.Piggybacked))
		n.tel.SetGauge("membership.suspicions", int64(st.Suspicions))
		n.tel.SetGauge("membership.refutations", int64(st.Refutations))
	}
}

// DeliveryFailures reports frames the node abandoned because their
// destination was down.
func (n *Node) DeliveryFailures() uint64 { return n.deliveryFailures.Load() }

// checkpointGate tells sites when compacting their journal is safe: a
// checkpoint covers the deliveries behind every past send, so sends
// still unacked at the reliable layer must hold the checkpoint back —
// only an acknowledged frame is provably journaled on its receiver.
// Without a reliable layer, frames are never retransmitted anyway, so
// there is nothing to wait for.
func (n *Node) checkpointGate() bool {
	// Coalesced-but-unsent envelopes are invisible to Unacked, so the
	// gate counts them too: a checkpoint must not presume a frame
	// delivered while it still sits in the outbound batch.
	if n.coal.pending() > 0 {
		return false
	}
	return n.rel == nil || n.rel.Unacked() == 0
}

// FlushOutbound asks every peer's flusher to ship its coalesced batch
// now. Sites call it (through an optional Router interface check)
// before parking idle, so a lone message never waits out the batch
// deadline.
func (n *Node) FlushOutbound() { n.coal.flushAll() }

// journalFor returns the destination site's journal handle (nil when
// the site is unjournaled or unknown). Lock-free: the accept hook runs
// on the transport's receive path for every pre-ack frame.
func (n *Node) journalFor(siteID uint32) *site.Journal {
	return n.table().journals[siteID]
}

// acceptFrame is the reliable layer's pre-ack hook: journal a mobility
// frame in its destination site's log, or refuse the ack. A frame for a
// site whose journal is not open yet (the node is mid-recovery) is
// refused too — the sender retransmits until recovery re-registers the
// site, so nothing is acknowledged into the void.
// Accept-before-ack holds per envelope: every entry of a batch is
// journaled before the single ack covering the whole batch can go
// out. An error refuses the batch unacked — the sender retransmits it,
// and entries journaled by the failed attempt are deduplicated at
// replay by their (site, id) op refs.
func (n *Node) acceptFrame(src transport.NodeID, frame []byte) error {
	if wire.IsBatch(frame) {
		it, err := wire.NewBatchIter(frame)
		if err != nil {
			return nil // undecodable frames are acked; dispatch reports them
		}
		var env wire.Envelope
		for {
			ok, err := it.Next(&env)
			if err != nil || !ok {
				return nil
			}
			if err := n.acceptEnvelope(&env); err != nil {
				return err
			}
		}
	}
	var env wire.Envelope
	if err := wire.DecodeEnvelopeInto(&env, frame); err != nil {
		// Undecodable frames are acked; dispatch reports them.
		return nil
	}
	return n.acceptEnvelope(&env)
}

// acceptEnvelope journals one mobility envelope in its destination
// site's log, or refuses the ack.
func (n *Node) acceptEnvelope(env *wire.Envelope) error {
	switch env.Type {
	case wire.FMsg, wire.FObj, wire.FFetchReq, wire.FFetchRep:
	default:
		return nil // control traffic is not journaled
	}
	op, dstSite, err := wire.PeekOp(env.Payload)
	if err != nil || op.IsZero() {
		return nil
	}
	if _, fwd := n.forwardFor(dstSite); fwd {
		// An evacuated site's straggler is acked without journaling
		// here: dispatch forwards it to the adopter, whose own
		// accept-before-ack hook journals it before acknowledging the
		// forwarded copy.
		return nil
	}
	jl := n.journalFor(dstSite)
	if jl == nil {
		return fmt.Errorf("node %d: no journal open for site %d", n.cfg.ID, dstSite)
	}
	return jl.AppendAccepted(env.Type, env.SrcNode, env.Payload)
}

// send ships one encoded frame. A destination declared dead is not an
// error the sender can act on: the frame is dropped (counted, with the
// OnDeliveryFailure signal) and the site keeps running — failure-aware
// termination accounting excludes traffic to dead nodes, so the dropped
// message does not read as forever in flight.
func (n *Node) send(dst uint32, frame []byte) error {
	return n.sendExpiring(dst, frame, time.Time{})
}

// sendExpiring ships one encoded frame with an optional transport
// expiry (zero = none). An already-expired frame rejected by the
// reliable layer is deliberate shedding, already accounted by its
// Expired counter and OnDrop signal — not an error the routing site
// can act on.
func (n *Node) sendExpiring(dst uint32, frame []byte, expiry time.Time) error {
	var err error
	if n.rel != nil && !expiry.IsZero() {
		err = n.rel.SendWithDeadline(dst, frame, expiry)
	} else {
		err = n.tr.Send(dst, frame)
	}
	if errors.Is(err, transport.ErrDeadlineExpired) {
		return nil
	}
	if errors.Is(err, transport.ErrPeerDown) {
		n.deliveryFailures.Add(1)
		if cb := n.cfg.OnDeliveryFailure; cb != nil {
			cb(dst, err)
		}
		return nil
	}
	return err
}

// control reads the current control-frame handler (handlers may be
// chained at runtime, e.g. by AttachFailureDetector).
func (n *Node) control() func(wire.FrameType, uint32, []byte) {
	if h := n.onControl.Load(); h != nil {
		return *h
	}
	return nil
}

// ID returns the node identifier.
func (n *Node) ID() uint32 { return n.cfg.ID }

// Err returns the first daemon-level error.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

func (n *Node) setErr(err error) {
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.mu.Unlock()
}

// Spawn creates a site for a program and starts it: the TyCOi path
// ("New sites are created when a new program is submitted for
// execution"). out overrides the node's default I/O port when non-nil.
func (n *Node) Spawn(siteName string, prog *site.Program, out io.Writer, opts ...SiteOption) (*site.Site, error) {
	if n.draining.Load() {
		return nil, fmt.Errorf("node %d: draining, not accepting new sites", n.cfg.ID)
	}
	if err := n.adm.Admit(); err != nil {
		// Retryable pushback: errors.Is(err, admission.ErrOverloaded)
		// tells the caller to back off and try again, unlike the
		// terminal refusals below.
		return nil, fmt.Errorf("node %d: %w", n.cfg.ID, err)
	}
	n.mu.Lock()
	if _, dup := n.table().byName[siteName]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("node %d: site %q already running", n.cfg.ID, siteName)
	}
	n.nextSite++
	id := n.cfg.ID<<siteIDBits | n.nextSite
	n.mu.Unlock()

	if out == nil {
		out = n.cfg.Out
	}
	var jl *site.Journal
	if n.cfg.Journals != nil {
		st, err := n.cfg.Journals.Open(siteName)
		if err != nil {
			return nil, fmt.Errorf("node %d: open journal for %q: %w", n.cfg.ID, siteName, err)
		}
		jl = site.NewJournal(st)
		if n.tel != nil {
			jl.SetOnAppend(n.tel.JournalAppend)
		}
	}
	cfg := site.Config{
		Name:            siteName,
		ID:              id,
		NodeID:          n.cfg.ID,
		NS:              n.cfg.NS,
		Router:          n,
		Out:             out,
		Journal:         jl,
		CheckpointEvery: n.cfg.CheckpointEvery,
		LeaseRefresh:    n.cfg.LeaseRefresh,
		CheckpointGate:  n.checkpointGate,
		Telemetry:       n.tel,
		Probe:           n.cfg.Introspect != nil,
		OpDeadline:      n.cfg.OpDeadline,
	}
	n.admissionHooks(&cfg)
	for _, o := range opts {
		o(&cfg)
	}
	s := site.New(cfg)
	if err := s.Load(prog); err != nil {
		if jl != nil {
			_ = jl.Close()
		}
		return nil, err
	}
	n.mu.Lock()
	n.mutateTables(func(t *siteTable) {
		t.sites[id] = s
		t.byName[siteName] = s
		if jl != nil {
			t.journals[id] = jl
		}
	})
	n.mu.Unlock()
	go s.Run()
	if n.cfg.Supervise && jl != nil {
		go n.supervise(s, siteName, out, opts...)
	}
	return s, nil
}

// supervise watches a site and restarts it from its journal when it
// dies with an error, up to maxRestarts times. A clean exit (Stop, or
// normal completion) ends supervision.
func (n *Node) supervise(s *site.Site, siteName string, out io.Writer, opts ...SiteOption) {
	for restarts := 0; ; restarts++ {
		select {
		case <-s.Done():
		case <-n.stop:
			return
		}
		if s.Err() == nil {
			return
		}
		select {
		case <-n.stop:
			return
		default:
		}
		n.dumpCrashTelemetry(siteName, restarts)
		n.noteStrike(siteName)
		if restarts >= maxRestarts {
			n.setErr(fmt.Errorf("node %d: site %q crashed %d times, giving up: %w",
				n.cfg.ID, siteName, restarts+1, s.Err()))
			return
		}
		recovered, err := n.RecoverSite(siteName, out, opts...)
		if err != nil {
			n.setErr(fmt.Errorf("node %d: recover site %q: %w", n.cfg.ID, siteName, err))
			return
		}
		s = recovered
	}
}

// dumpCrashTelemetry writes the node's telemetry snapshot (metrics +
// retained flight-recorder events) into CrashDumpDir when a
// supervised site dies with an error. Best-effort: a failed dump
// never blocks the restart.
func (n *Node) dumpCrashTelemetry(siteName string, restarts int) {
	if n.tel == nil || n.cfg.CrashDumpDir == "" {
		return
	}
	b, err := json.MarshalIndent(n.TelemetrySnapshot(), "", "  ")
	if err != nil {
		return
	}
	name := fmt.Sprintf("node%d-%s-crash%d.json", n.cfg.ID, siteName, restarts)
	_ = os.WriteFile(filepath.Join(n.cfg.CrashDumpDir, name), append(b, '\n'), 0o644)
}

// RecoverSite restarts a site from its journal under an incremented
// epoch: parse the log, replay checkpoint + deliveries, re-deliver
// accepted-but-unapplied operations, re-register exports. The recovered
// site keeps its network-wide id, so references held by remote heaps
// stay valid.
func (n *Node) RecoverSite(siteName string, out io.Writer, opts ...SiteOption) (*site.Site, error) {
	if n.cfg.Journals == nil {
		return nil, fmt.Errorf("node %d: recovery needs a journal factory", n.cfg.ID)
	}
	// Reuse the live journal handle when the dead incarnation's is still
	// registered: the node's accept hook appends to it concurrently, and
	// two handles over one store would race (the site re-reads the log
	// itself once registered, so late appends are never lost).
	var jl *site.Journal
	if old, ok := n.table().byName[siteName]; ok {
		jl = n.table().journals[old.ID()]
	}
	if jl == nil {
		st, err := n.cfg.Journals.Open(siteName)
		if err != nil {
			return nil, err
		}
		jl = site.NewJournal(st)
		if n.tel != nil {
			jl.SetOnAppend(n.tel.JournalAppend)
		}
	}
	rec, err := site.LoadJournal(jl)
	if err != nil {
		return nil, err
	}
	epoch := rec.Epoch() + 1
	if err := jl.Append(site.RecEpoch, site.EncodeEpoch(epoch)); err != nil {
		return nil, err
	}
	id := rec.SiteID()
	if out == nil {
		out = n.cfg.Out
	}
	cfg := site.Config{
		Name:            siteName,
		ID:              id,
		NodeID:          n.cfg.ID,
		NS:              n.cfg.NS,
		Router:          n,
		Out:             out,
		Epoch:           epoch,
		Journal:         jl,
		CheckpointEvery: n.cfg.CheckpointEvery,
		LeaseRefresh:    n.cfg.LeaseRefresh,
		CheckpointGate:  n.checkpointGate,
		Telemetry:       n.tel,
		Probe:           n.cfg.Introspect != nil,
		OpDeadline:      n.cfg.OpDeadline,
	}
	n.admissionHooks(&cfg)
	for _, o := range opts {
		o(&cfg)
	}
	s := site.New(cfg)
	s.SetRestore(rec)
	n.mu.Lock()
	n.mutateTables(func(t *siteTable) {
		// Retire the dead incarnation.
		if old, ok := t.byName[siteName]; ok {
			delete(t.sites, old.ID())
		}
		t.sites[id] = s
		t.byName[siteName] = s
		t.journals[id] = jl
	})
	// Make sure fresh spawns can never collide with the recovered id.
	if low := id & (1<<siteIDBits - 1); low > n.nextSite {
		n.nextSite = low
	}
	n.mu.Unlock()
	// Registered before the first turn: live traffic buffers in the
	// site's queue while the journal replays underneath it.
	go s.Run()
	return s, nil
}

// admissionHooks wires a spawning site into the overload-protection
// and analytics planes: sojourn samples feed the admission controller
// and the deliver.sojourn_nanos histogram (the SLO plane's latency
// signal), and the site answers fetches with retryable pushback while
// the node sheds. Both observers are lock-free, so enabling telemetry
// alone keeps the deliver path contention-free.
func (n *Node) admissionHooks(cfg *site.Config) {
	switch {
	case n.adm != nil && n.tel != nil:
		adm, tel := n.adm, n.tel
		cfg.OnSojourn = func(d time.Duration) {
			adm.ObserveSojourn(d)
			tel.ObserveSojourn(d)
		}
	case n.adm != nil:
		cfg.OnSojourn = n.adm.ObserveSojourn
	case n.tel != nil:
		cfg.OnSojourn = n.tel.ObserveSojourn
	}
	if n.adm != nil {
		cfg.Overloaded = func() bool { return n.adm.State() == admission.Shed }
	}
}

// SiteOption tweaks a spawned site's configuration.
type SiteOption func(*site.Config)

// WithFetchCacheDisabled turns off the fetched-class cache.
func WithFetchCacheDisabled() SiteOption {
	return func(c *site.Config) { c.DisableFetchCache = true }
}

// WithPollInterval sets the site's scheduler slice length.
func WithPollInterval(k int) SiteOption {
	return func(c *site.Config) { c.PollInterval = k }
}

// Site returns a running site by id.
func (n *Node) Site(id uint32) (*site.Site, bool) {
	s, ok := n.table().sites[id]
	return s, ok
}

// SiteByName returns a running site by source lexeme.
func (n *Node) SiteByName(name string) (*site.Site, bool) {
	s, ok := n.table().byName[name]
	return s, ok
}

// Sites snapshots the running sites.
func (n *Node) Sites() []*site.Site {
	t := n.table()
	out := make([]*site.Site, 0, len(t.sites))
	for _, s := range t.sites {
		out = append(out, s)
	}
	return out
}

// Stop shuts down the node: all sites, then the daemon.
func (n *Node) Stop() {
	if m := n.mem.Load(); m != nil {
		m.Stop()
	}
	n.mu.Lock()
	intro := n.intro
	n.intro = nil
	n.mu.Unlock()
	if intro != nil {
		_ = intro.Close()
	}
	sites := n.Sites()
	for _, s := range sites {
		s.Stop()
	}
	for _, s := range sites {
		<-s.Done()
	}
	n.coal.close()
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
	var journals []*site.Journal
	n.mu.Lock()
	n.mutateTables(func(t *siteTable) {
		for id, jl := range t.journals {
			journals = append(journals, jl)
			delete(t.journals, id)
		}
	})
	n.mu.Unlock()
	for _, jl := range journals {
		_ = jl.Close()
	}
	if n.rel != nil {
		// The node owns the reliable layer it constructed (which in
		// turn owns the wrapped transport).
		_ = n.rel.Close()
	}
}

// SendControl ships a control payload (termination, heartbeat) to
// another node; dst == self loops back through OnControl directly.
func (n *Node) SendControl(t wire.FrameType, dst uint32, payload []byte) error {
	if dst == n.cfg.ID {
		if h := n.control(); h != nil {
			h(t, n.cfg.ID, payload)
		}
		return nil
	}
	if (t == wire.FHeartbeat || t == wire.FGossip) && n.rel != nil {
		// Heartbeats and gossip probes stay best-effort: retransmitting
		// one to a dead peer would mask exactly the loss the detector
		// listens for.
		env := &wire.Envelope{Type: t, SrcNode: n.cfg.ID, DstNode: dst, Payload: payload}
		return n.rel.SendBestEffort(dst, env.Encode())
	}
	// Control probes flush immediately, riding along with (not waiting
	// for) any data already coalesced for the peer.
	return n.coal.enqueueFlush(dst, t, func(w *wire.Writer) { w.Raw(payload) })
}

// tycod is the communication daemon: it drains the transport and
// routes frames to site incoming queues.
func (n *Node) tycod() {
	defer close(n.done)
	recv := n.tr.Recv()
	for {
		select {
		case frame, ok := <-recv:
			if !ok {
				return
			}
			if err := n.dispatch(frame); err != nil {
				n.setErr(err)
			}
		case <-n.stop:
			return
		}
	}
}

// dispatch decodes one transport frame — a plain envelope or a batch
// of them — and delivers it. A bad entry mid-batch doesn't block the
// rest: each envelope delivers independently (TyCO's asynchronous
// semantics order nothing between them) and the first error is
// reported.
func (n *Node) dispatch(frame []byte) error {
	if wire.IsBatch(frame) {
		it, err := wire.NewBatchIter(frame)
		if err != nil {
			return fmt.Errorf("node %d: bad batch: %w", n.cfg.ID, err)
		}
		var firstErr error
		var env wire.Envelope
		for {
			ok, err := it.Next(&env)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("node %d: bad batch entry: %w", n.cfg.ID, err)
				}
				return firstErr
			}
			if !ok {
				return firstErr
			}
			if err := n.dispatchEnvelope(&env); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	var env wire.Envelope
	if err := wire.DecodeEnvelopeInto(&env, frame); err != nil {
		return fmt.Errorf("node %d: bad frame: %w", n.cfg.ID, err)
	}
	return n.dispatchEnvelope(&env)
}

// dispatchEnvelope delivers one decoded envelope.
func (n *Node) dispatchEnvelope(env *wire.Envelope) error {
	switch env.Type {
	case wire.FMsg, wire.FObj, wire.FFetchReq, wire.FFetchRep:
		// Data is proof of life: a busy link keeps the phi window tight
		// without waiting for the next gossip probe.
		if m := n.mem.Load(); m != nil {
			m.Contact(env.SrcNode)
		}
		if n.fwdCount.Load() != 0 {
			if _, fwdSite, err := wire.PeekOp(env.Payload); err == nil {
				if target, ok := n.forwardFor(fwdSite); ok {
					return n.forwardEnvelope(env, target)
				}
			}
		}
		d, dstSite, err := site.DecodePayload(env.Type, env.SrcNode, env.Payload)
		if err != nil {
			return fmt.Errorf("node %d: %w", n.cfg.ID, err)
		}
		d.Trace = env.Trace
		d.Deadline = env.Deadline
		return n.toSite(dstSite, d)
	case wire.FTerm, wire.FHeartbeat, wire.FGossip:
		if h := n.control(); h != nil {
			h(env.Type, env.SrcNode, env.Payload)
		}
		return nil
	default:
		return fmt.Errorf("node %d: unknown frame type %s", n.cfg.ID, env.Type)
	}
}

// toSite delivers to a local site's incoming queue.
func (n *Node) toSite(siteID uint32, d site.Delivery) error {
	t := n.table()
	s, ok := t.sites[siteID]
	jl := t.journals[siteID]
	if !ok {
		if jl != nil && !d.Op.IsZero() {
			// The site is down but its journal already holds the
			// accepted record (the accept hook ran before the ack);
			// recovery replays it. Dropping here is not loss.
			return nil
		}
		return fmt.Errorf("node %d: frame for unknown site %d", n.cfg.ID, siteID)
	}
	n.remoteDeliveries.Add(1)
	if err := s.Deliver(d); err != nil {
		if jl != nil && !d.Op.IsZero() {
			// The site stopped (crash, or mid-drain) after the accept
			// hook journaled the record; replay re-delivers it.
			return nil
		}
		return err
	}
	return nil
}

// toLocal delivers same-node traffic via the shared-memory fast path
// (or the forced marshalling ablation). payload lazily encodes the
// operation's wire form: local mobility skips marshalling entirely
// unless the destination is journaled (the accepted record needs bytes)
// or the E2 ablation forces it. reencode marks the frame types the
// ablation round-trips (messages and objects; fetch traffic is exempt,
// matching the paper's measurement).
func (n *Node) toLocal(siteID uint32, d site.Delivery, t wire.FrameType, payload func() []byte, reencode bool) error {
	tab := n.table()
	s, ok := tab.sites[siteID]
	jl := tab.journals[siteID]
	var encoded []byte
	if jl != nil && !d.Op.IsZero() && payload != nil {
		// Same append-before-apply contract as the remote path: once
		// RouteX returns nil, the operation survives a destination
		// crash.
		encoded = payload()
		if err := jl.AppendAccepted(t, n.cfg.ID, encoded); err != nil {
			return fmt.Errorf("node %d: journal local delivery: %w", n.cfg.ID, err)
		}
	}
	if !ok {
		if jl != nil && !d.Op.IsZero() {
			return nil // journaled above; recovery replays it
		}
		return fmt.Errorf("node %d: delivery for unknown local site %d", n.cfg.ID, siteID)
	}
	if n.cfg.ForceMarshalLocal && reencode {
		if encoded == nil {
			encoded = payload()
		}
		if d2, _, err := site.DecodePayload(t, n.cfg.ID, encoded); err == nil {
			d = d2
		}
	}
	d.Src = n.cfg.ID
	n.localDeliveries.Add(1)
	return s.Deliver(d)
}
