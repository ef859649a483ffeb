package sim

import "fmt"

// shardView schedules on a shared sequential Engine while stamping events
// with a fixed logical-shard id and a private sequence counter — exactly the
// key (at, schedAt, src, seq) a per-shard engine of the sharded core would
// assign. Driving one Engine through per-shard views therefore executes the
// same events in the same total order as the parallel core runs them, which
// is what makes sequential (`-shards 0`) output bit-identical to `-shards N`:
// both modes order every event by the same topology-and-seed-determined key.
type shardView struct {
	e   *Engine
	src uint32
	seq uint64
}

// ShardView returns a Scheduler that schedules on e stamped as logical shard
// src, with its own sequence counter (mirroring the per-shard engines of the
// sharded core, whose counters are also per shard). Pair with SetSrc(n) on
// the engine itself so directly scheduled coordinator events sort exactly
// where the sharded coordinator engine would place them.
func (e *Engine) ShardView(src uint32) Scheduler { return &shardView{e: e, src: src} }

// SetSrc sets the shard id stamped on events scheduled directly on e.
// The sequential construction of a logically sharded fabric sets it to the
// shard count so coordinator-context events (sampling ticks, chaos timelines)
// order after same-key shard events, as they do on the sharded core's global
// engine. Call during setup, before events are scheduled.
func (e *Engine) SetSrc(src uint32) { e.src = src }

// Now returns the underlying engine's clock.
func (v *shardView) Now() Time { return v.e.now }

// At schedules fn at absolute time t under the view's shard stamp.
func (v *shardView) At(t Time, fn Event) Handle {
	if t < v.e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, v.e.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	h := v.e.push(t, v.e.now, v.src, v.seq, fn)
	v.seq++
	return h
}

// After schedules fn at Now+d under the view's shard stamp.
func (v *shardView) After(d Duration, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return v.At(v.e.now+d, fn)
}

// Cancel deschedules a pending event (views share the engine's arena, so a
// handle from any view of the same engine works).
func (v *shardView) Cancel(h Handle) bool { return v.e.Cancel(h) }

// Every runs fn periodically under the view's shard stamp until stop is
// called; semantics match Engine.Every (idempotent stop, cancels the
// outstanding tick).
func (v *shardView) Every(period Duration, fn Event) (stop func()) { return every(v, period, fn) }

// Stop stops the underlying engine's run loop.
func (v *shardView) Stop() { v.e.Stop() }
