// Package workload generates the traffic patterns of the evaluation:
// permutation traffic, incast, the 90-to-1 on/off dynamic demand of
// Fig 16, Poisson message arrivals with an empirical heavy-tailed flow
// size distribution scaled to a target load, and a message tracker that
// measures per-message FCT through the transports' delivery callbacks.
package workload

import (
	"math/rand"
	"sort"

	"ufab/internal/flowsrc"
	"ufab/internal/sim"
)

// Message is one tracked transfer.
type Message struct {
	ID    int64
	Size  int64
	Start sim.Time
	// remaining bytes to acknowledge before completion.
	remaining int64
	// done is the per-message completion callback (SendFunc).
	done func(m Message, fct sim.Duration)
}

// Messages is a flowsrc.Source that frames its bytes into messages and
// reports each message's completion time. Completion is FIFO-attributed:
// acknowledged bytes complete messages in send order, which is exact for
// the in-order transports simulated here.
type Messages struct {
	pending int64
	kick    func()
	queue   []Message
	nextID  int64
	// Sharing switches completion attribution from FIFO to processor
	// sharing: acknowledged bytes are spread evenly across the
	// outstanding messages, modeling concurrent flows that share the
	// VM-pair's allocation instead of queueing behind each other.
	Sharing bool
	// OnComplete receives each finished message and its FCT.
	OnComplete func(m Message, fct sim.Duration)
	// Completed counts finished messages.
	Completed int64
}

var _ flowsrc.Source = (*Messages)(nil)
var _ flowsrc.DeliveryObserver = (*Messages)(nil)
var _ flowsrc.Requeuer = (*Messages)(nil)
var _ flowsrc.Kicker = (*Messages)(nil)

// Send enqueues a message of the given size at time now.
func (m *Messages) Send(size int64, now sim.Time) *Message {
	return m.SendFunc(size, now, nil)
}

// SendFunc enqueues a message with a per-message completion callback,
// invoked (in addition to OnComplete) when the message finishes.
func (m *Messages) SendFunc(size int64, now sim.Time, done func(msg Message, fct sim.Duration)) *Message {
	if size <= 0 {
		panic("workload: non-positive message size")
	}
	m.nextID++
	m.queue = append(m.queue, Message{ID: m.nextID, Size: size, Start: now, remaining: size, done: done})
	m.pending += size
	if m.kick != nil {
		m.kick()
	}
	return &m.queue[len(m.queue)-1]
}

// Outstanding returns the number of incomplete messages.
func (m *Messages) Outstanding() int { return len(m.queue) }

// Pending implements flowsrc.Source.
func (m *Messages) Pending() int64 { return m.pending }

// Consume implements flowsrc.Source.
func (m *Messages) Consume(n int64) {
	if n > m.pending {
		panic("workload: Consume beyond Pending")
	}
	m.pending -= n
}

// Requeue implements flowsrc.Requeuer (lost bytes are retransmitted).
func (m *Messages) Requeue(n int64) { m.pending += n }

// SetKick implements flowsrc.Kicker.
func (m *Messages) SetKick(f func()) { m.kick = f }

// Delivered implements flowsrc.DeliveryObserver, completing messages in
// FIFO order (or spreading bytes across outstanding messages when Sharing
// is set).
func (m *Messages) Delivered(n int64, now sim.Time) {
	if m.Sharing {
		m.deliverShared(n, now)
		return
	}
	for n > 0 && len(m.queue) > 0 {
		head := &m.queue[0]
		take := n
		if take > head.remaining {
			take = head.remaining
		}
		head.remaining -= take
		n -= take
		if head.remaining == 0 {
			m.complete(0, now)
		}
	}
}

// deliverShared distributes n acknowledged bytes evenly over the
// outstanding messages (processor sharing), completing any that finish.
func (m *Messages) deliverShared(n int64, now sim.Time) {
	for n > 0 && len(m.queue) > 0 {
		per := n / int64(len(m.queue))
		if per == 0 {
			per = 1
		}
		progressed := false
		for i := 0; i < len(m.queue) && n > 0; i++ {
			take := per
			if take > m.queue[i].remaining {
				take = m.queue[i].remaining
			}
			if take > n {
				take = n
			}
			if take == 0 {
				continue
			}
			m.queue[i].remaining -= take
			n -= take
			progressed = true
			if m.queue[i].remaining == 0 {
				m.complete(i, now)
				i--
			}
		}
		if !progressed {
			break
		}
	}
}

// complete pops the message at index i and fires its callbacks.
func (m *Messages) complete(i int, now sim.Time) {
	m.Completed++
	msg := m.queue[i]
	m.queue = append(m.queue[:i], m.queue[i+1:]...)
	if m.OnComplete != nil {
		m.OnComplete(msg, now-msg.Start)
	}
	if msg.done != nil {
		msg.done(msg, now-msg.Start)
	}
}

// Observe adds fn to the completion callbacks, composing with (running
// after) any previously registered OnComplete instead of replacing it —
// instrumentation and experiment accounting can both watch completions.
func (m *Messages) Observe(fn func(msg Message, fct sim.Duration)) {
	if fn == nil {
		return
	}
	if prev := m.OnComplete; prev != nil {
		m.OnComplete = func(msg Message, fct sim.Duration) {
			prev(msg, fct)
			fn(msg, fct)
		}
		return
	}
	m.OnComplete = fn
}

// FixedRate feeds a buffer at a constant rate in byte chunks, emulating an
// application with a bounded demand. Stop the feeder with the returned
// function.
func FixedRate(eng sim.Scheduler, buf *flowsrc.Buffer, bps float64, chunk sim.Duration) (stop func()) {
	if chunk <= 0 {
		chunk = 100 * sim.Microsecond
	}
	bytesPerChunk := int64(bps * chunk.Seconds() / 8)
	if bytesPerChunk < 1 {
		bytesPerChunk = 1
	}
	return eng.Every(chunk, func() { buf.Add(bytesPerChunk) })
}

// OnOff alternates a flow between a fixed-rate demand phase and an
// unlimited (backlogged) phase every period — the Fig 16 90-to-1 dynamic
// workload (500 Mbps fixed vs unlimited every 4 ms). During the unlimited
// phase a large backlog chunk is injected per period; during the fixed
// phase bytes drip at underloadBps.
func OnOff(eng sim.Scheduler, buf *flowsrc.Buffer, underloadBps float64, period sim.Duration, unlimitedChunk int64) (stop func()) {
	on := true // first flip enters underload
	var stopRate func()
	flip := func() {
		if stopRate != nil {
			stopRate()
			stopRate = nil
		}
		on = !on
		if on {
			buf.Add(unlimitedChunk)
			stopRate = eng.Every(period/8, func() { buf.Add(unlimitedChunk / 8) })
		} else {
			// Drop the unconsumed backlog so the flow really goes
			// back to underload.
			buf.Consume(buf.Pending())
			stopRate = FixedRate(eng, buf, underloadBps, period/40)
		}
	}
	flip() // enter underload immediately
	stopPhase := eng.Every(period, flip)
	return func() {
		stopPhase()
		if stopRate != nil {
			stopRate()
		}
	}
}

// SizeDist is an empirical flow-size CDF.
type SizeDist struct {
	// Sizes in bytes and the cumulative probability at each size.
	Sizes []int64
	CDF   []float64
}

// Sample draws a size by inverse-transform sampling with log-linear
// interpolation between CDF points.
func (d *SizeDist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.CDF, u)
	if i == 0 {
		return d.Sizes[0]
	}
	if i >= len(d.Sizes) {
		return d.Sizes[len(d.Sizes)-1]
	}
	// Linear interpolation between points i-1 and i.
	f0, f1 := d.CDF[i-1], d.CDF[i]
	s0, s1 := float64(d.Sizes[i-1]), float64(d.Sizes[i])
	if f1 == f0 {
		return d.Sizes[i]
	}
	frac := (u - f0) / (f1 - f0)
	return int64(s0 + frac*(s1-s0))
}

// Mean returns the distribution's expected size in bytes.
func (d *SizeDist) Mean() float64 {
	mean := 0.0
	prev := 0.0
	for i := range d.Sizes {
		p := d.CDF[i] - prev
		prev = d.CDF[i]
		// Use the midpoint of each segment.
		lo := float64(d.Sizes[0])
		if i > 0 {
			lo = float64(d.Sizes[i-1])
		}
		mean += p * (lo + float64(d.Sizes[i])) / 2
	}
	return mean
}

// WebSearch is the DCTCP-style web-search flow size distribution the
// evaluation's "real workload" (§5.5, [7]) is consistent with: heavy
// tailed, most flows small, most bytes in multi-MB flows.
func WebSearch() *SizeDist {
	return &SizeDist{
		Sizes: []int64{6_000, 13_000, 19_000, 33_000, 53_000, 133_000,
			667_000, 1_333_000, 3_333_000, 6_667_000, 20_000_000},
		CDF: []float64{0.15, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 0.99, 1.0},
	}
}

// KeyValue is the Memcached value-size distribution (mean ≈ 2 KB) modeled
// after the ETC pool of the Facebook workload study [10].
func KeyValue() *SizeDist {
	return &SizeDist{
		Sizes: []int64{64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 32_768, 131_072},
		CDF:   []float64{0.1, 0.2, 0.4, 0.55, 0.7, 0.8, 0.9, 0.96, 0.995, 1.0},
	}
}

// Poisson drives messages into tracker with exponential inter-arrival
// times targeting loadBps of offered load given the size distribution.
// Each arrival's destination callback (if non-nil) is invoked instead of
// tracker.Send, letting the caller pick a destination per message.
func Poisson(eng sim.Scheduler, rng *rand.Rand, dist *SizeDist, loadBps float64,
	send func(size int64, now sim.Time)) (stop func()) {
	meanSize := dist.Mean()
	rate := loadBps / 8 / meanSize // messages per second
	stopped := false
	var next func()
	next = func() {
		if stopped {
			return
		}
		send(dist.Sample(rng), eng.Now())
		gap := sim.DurationFromSeconds(rng.ExpFloat64() / rate)
		if gap < sim.Nanosecond {
			gap = sim.Nanosecond
		}
		eng.After(gap, next)
	}
	gap := sim.DurationFromSeconds(rng.ExpFloat64() / rate)
	eng.After(gap, next)
	return func() { stopped = true }
}
