package dataplane

// PoisonReleased makes the network scribble over every pool-born packet it
// takes back — an impossible kind, no route, garbage in the payload — so a
// handler or agent that still reads a packet it has given up reads nonsense
// and the run it is part of diverges or dies.
func (n *Network) PoisonReleased(on bool) { n.poison = on }

// LivePackets returns how many pool-born packets are out of the free lists:
// made by NewPacket and not taken back. Call it with the engine idle.
func (n *Network) LivePackets() int64 {
	var live int64
	for i := range n.pools {
		live += n.pools[i].made - int64(len(n.pools[i].free))
	}
	return live
}

// PooledPackets returns how many packets sit on the free lists.
func (n *Network) PooledPackets() int {
	free := 0
	for i := range n.pools {
		free += len(n.pools[i].free)
	}
	return free
}
