package vfabric

import (
	"fmt"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// BuildOptions selects how a fabric and its simulation engine are
// constructed. It is the one construction path shared by the experiment
// harness, the scenario fuzzer, and the control-plane daemon.
type BuildOptions struct {
	// Graph is the physical topology (required).
	Graph *topo.Graph
	// Cfg is the fabric configuration (seed, telemetry, audit, agents).
	Cfg Config
	// Shards is the number of worker goroutines that execute the fabric's
	// logical shards: 0 runs them inline on the goroutine driving the
	// engine, N >= 1 on N workers in parallel. Output is bit-identical
	// across every value: the shards, and the (time, schedule-time, shard,
	// sequence) key that orders every event, are the same.
	Shards int
	// Eng optionally supplies the engine to partition and drive (the
	// daemon and fuzzer keep their own handle for timers and quantum
	// stepping). It must be fresh — no events scheduled yet.
	Eng *sim.Engine
}

// Build assembles a μFAB fabric over a pod partition of the topology: the
// topology is cut into one shard per pod (cores round-robined), the engine
// is partitioned to match, every node's agents schedule and record inside
// the node's shard, fault randomness comes from per-shard streams derived
// from (seed, shard), and the auditor is fed the canonically merged event
// stream at each sampling barrier. None of that depends on how many
// workers execute the shards, so metrics and traces are bit-identical for
// any Shards value.
//
// A topology that cannot be partitioned (a cut link with zero propagation
// delay leaves no lookahead window) is one logical shard, which always
// runs inline.
func Build(o BuildOptions) (*Fabric, error) {
	if o.Graph == nil {
		return nil, fmt.Errorf("vfabric: Build requires a Graph")
	}
	part, err := topo.PartitionPods(o.Graph)
	if err != nil {
		part = singleShard(o.Graph)
	}
	cfg := o.Cfg
	normalize(&cfg)
	if cfg.Telemetry != nil {
		cfg.Telemetry.EnableShardRecorders(part.Shards, 0)
	}
	eng := o.Eng
	if eng == nil {
		eng = sim.New()
	}
	eng.Partition(part.Shards, o.Shards, part.MinCutDelay)
	f := assemble(eng, dataplane.NewPartitioned(eng, part, o.Graph, dataplane.Config{Telemetry: cfg.Telemetry}), o.Graph, cfg)
	f.partitioned = true
	return f, nil
}

// singleShard is the degenerate partition: everything in shard 0, no cut
// links, no window bound.
func singleShard(g *topo.Graph) *topo.Partition {
	return &topo.Partition{Shards: 1, Node: make([]int32, len(g.Nodes))}
}
