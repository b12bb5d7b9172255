// Package admission is the overload-protection brain of a node
// (DESIGN.md §14): a CoDel-style controller that watches queue sojourn
// times and queue occupancy and decides when the node should stop
// accepting new work. It is deliberately a leaf package — stdlib only —
// so the transport, node, site and nameservice layers can all consume
// its verdicts without import cycles.
//
// The controller distinguishes overload from a transient burst the way
// CoDel does: a burst empties the queue between arrivals, so the
// *minimum* sojourn time observed over a window stays low even when the
// maximum spikes; standing overload keeps the queue from ever draining,
// so even the minimum sojourn exceeds the target for a whole window.
// Occupancy watermarks (inbox channels, reliable-layer send windows)
// catch the complementary failure mode where sojourn cannot be sampled
// because nothing is completing at all.
package admission

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is the typed, retryable pushback every admission
// rejection surfaces: callers (remote spawns, imports, fetch requests)
// should back off and retry, not fail permanently. It crosses the
// nameservice wire as a string and is rehydrated by errors.Is-aware
// clients.
var ErrOverloaded = errors.New("admission: overloaded")

// State is the controller's current verdict, ordered by severity.
type State int32

const (
	// Ok: admit everything.
	Ok State = iota
	// Warn: admit, but the node is trending toward overload —
	// occupancy is past half a shed watermark or sojourn brushed the
	// target. Operators see it; nothing is rejected yet.
	Warn
	// Shed: standing overload. Reject new admission-gated work with
	// ErrOverloaded, shed expired/best-effort work, keep control
	// traffic flowing.
	Shed
)

func (s State) String() string {
	switch s {
	case Ok:
		return "ok"
	case Warn:
		return "warn"
	case Shed:
		return "shed"
	default:
		return "unknown"
	}
}

// Config tunes a Controller. The zero value of any field selects its
// default.
type Config struct {
	// Target is the acceptable standing queue sojourn (default 5ms):
	// if even the minimum sojourn over a full Window exceeds it, the
	// queue never drained and the node is overloaded.
	Target time.Duration
	// Window is the CoDel observation interval (default 100ms).
	Window time.Duration
	// InboxShed is the site-inbox occupancy fraction (0..1) beyond
	// which the controller sheds regardless of sojourn (default 0.9).
	// Half of it is the Warn watermark.
	InboxShed float64
	// WindowShed is the reliable-layer send-window occupancy fraction
	// beyond which the controller sheds (default 0.9). Half of it is
	// the Warn watermark.
	WindowShed float64
	// Decay is how many consecutive clean windows (minimum sojourn
	// back under target) it takes to clear a sojourn-tripped Shed
	// (default 2) — hysteresis, so the state doesn't flap at the
	// boundary. Occupancy-tripped shedding clears as soon as the
	// queues drain.
	Decay int
}

func (c Config) withDefaults() Config {
	if c.Target <= 0 {
		c.Target = 5 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.InboxShed <= 0 || c.InboxShed > 1 {
		c.InboxShed = 0.9
	}
	if c.WindowShed <= 0 || c.WindowShed > 1 {
		c.WindowShed = 0.9
	}
	if c.Decay <= 0 {
		c.Decay = 2
	}
	return c
}

// Controller is the admission controller. Sojourn observations arrive
// from site scheduler turns (any goroutine); occupancy samples from the
// node's periodic sampler; Admit/State reads from every layer that
// gates work. All methods are safe for concurrent use, and the
// read-side (State, Admit) is one atomic load.
type Controller struct {
	cfg Config

	state atomic.Int32
	sheds atomic.Uint64

	// sojMin is the hot-path sojourn mirror: a CAS-min updated by
	// every site turn on every core, with no lock and no
	// clock read. The node's periodic Tick folds it into the windowed
	// CoDel verdict below. noSample flags an empty window.
	sojMin atomic.Int64

	mu       sync.Mutex
	winStart time.Time
	minSoj   time.Duration
	sampled  bool
	sojBad   bool // verdict of the last completed window
	clean    int  // consecutive clean windows (hysteresis)
	inboxOcc float64
	windOcc  float64
}

// noSample marks the CAS-min mirror empty.
const noSample = int64(math.MaxInt64)

// New creates a controller in the Ok state.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults()}
	c.sojMin.Store(noSample)
	return c
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// ObserveSojourn records one queue sojourn sample (time a delivery
// spent waiting in an incoming queue before being handled). Lock-free
// and clock-free: site goroutines on every core report here
// concurrently, so the hot path is a CAS-min
// against the window mirror — the periodic Tick does the folding and
// the window arithmetic.
func (c *Controller) ObserveSojourn(d time.Duration) {
	if c == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	for {
		cur := c.sojMin.Load()
		if v >= cur {
			return
		}
		if c.sojMin.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Tick folds the CAS-min sojourn mirror into the CoDel window and
// rolls the window when due. Called periodically by the node's
// occupancy sampler (several times per Window); the hot observation
// path never touches the clock or the lock.
func (c *Controller) Tick(now time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.winStart.IsZero() {
		c.winStart = now
	}
	roll := now.Sub(c.winStart) >= c.cfg.Window
	var m int64
	if roll {
		// Swap, not load-then-store: a sample CASed in between a
		// separate load and the reset would be erased, losing the
		// first observation of the new window. The swapped value
		// folds into the window being closed — a sample racing the
		// roll belongs to either side, and the closing window is the
		// one its CAS beat the reset into.
		m = c.sojMin.Swap(noSample)
	} else {
		m = c.sojMin.Load()
	}
	if m != noSample {
		d := time.Duration(m)
		if !c.sampled || d < c.minSoj {
			c.minSoj = d
			c.sampled = true
		}
	}
	if roll {
		c.rollWindowLocked(now)
	}
	c.recomputeLocked()
	c.mu.Unlock()
}

// rollWindowLocked completes one observation window: the minimum
// sojourn is the CoDel signal. Tripping is immediate; clearing takes
// Decay consecutive clean windows (hysteresis, so the verdict doesn't
// flap at the target boundary).
func (c *Controller) rollWindowLocked(now time.Time) {
	if c.sampled && c.minSoj > c.cfg.Target {
		c.sojBad = true
		c.clean = 0
	} else if c.sojBad {
		c.clean++
		if c.clean >= c.cfg.Decay {
			c.sojBad = false
		}
	}
	c.winStart = now
	c.sampled = false
	c.minSoj = 0
}

// ObserveSojournAt is a locked, explicit-clock observation path kept
// for deterministic tests: it both records the sample and advances the
// window against the supplied clock.
func (c *Controller) ObserveSojournAt(d time.Duration, now time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.winStart.IsZero() {
		c.winStart = now
	}
	if !c.sampled || d < c.minSoj {
		c.minSoj = d
		c.sampled = true
	}
	if now.Sub(c.winStart) >= c.cfg.Window {
		c.rollWindowLocked(now)
	}
	c.recomputeLocked()
	c.mu.Unlock()
}

// SetOccupancy feeds the watermark inputs: the worst site-inbox
// occupancy and the worst reliable send-window occupancy, both as
// fractions of capacity. Called periodically by the node's sampler.
func (c *Controller) SetOccupancy(inbox, window float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.inboxOcc = inbox
	c.windOcc = window
	c.recomputeLocked()
	c.mu.Unlock()
}

// recomputeLocked derives the state from the sojourn verdict (which
// carries its own window-level hysteresis) and the current occupancy.
// Occupancy is a level, not an edge: it sheds while high and clears as
// soon as the queues drain.
func (c *Controller) recomputeLocked() {
	occShed := c.inboxOcc >= c.cfg.InboxShed || c.windOcc >= c.cfg.WindowShed
	occWarn := c.inboxOcc >= c.cfg.InboxShed/2 || c.windOcc >= c.cfg.WindowShed/2
	next := Ok
	switch {
	case c.sojBad || occShed:
		next = Shed
	case occWarn:
		next = Warn
	}
	c.state.Store(int32(next))
}

// State reports the current verdict (one atomic load; nil reads Ok).
func (c *Controller) State() State {
	if c == nil {
		return Ok
	}
	return State(c.state.Load())
}

// Admit gates one unit of admission-controlled work: nil when the work
// may proceed, ErrOverloaded (counted) when the node is shedding.
func (c *Controller) Admit() error {
	if c.State() == Shed {
		c.sheds.Add(1)
		return ErrOverloaded
	}
	return nil
}

// Sheds reports how many admissions were rejected.
func (c *Controller) Sheds() uint64 {
	if c == nil {
		return 0
	}
	return c.sheds.Load()
}
