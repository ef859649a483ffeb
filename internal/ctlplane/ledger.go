package ctlplane

import (
	"ufab/internal/placement"
	"ufab/internal/topo"
)

// ShardedLedger is the old name of the single subscription ledger.
//
// Deprecated: use placement.Ledger. This shim exists only because the
// frozen benchmark harness (bench/layers.go, ctlLedgerLayer) still calls
// NewShardedLedger; delete the file once a benchmark PR retargets it.
type ShardedLedger = placement.Ledger

// NewShardedLedger forwards to placement.NewLedger; the shard count is
// ignored.
func NewShardedLedger(g *topo.Graph, maxPaths, _ int, oversub float64) *ShardedLedger {
	l := placement.NewLedger(g, maxPaths)
	l.Oversubscription = oversub
	return l
}
