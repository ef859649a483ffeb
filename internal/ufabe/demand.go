package ufabe

import "ufab/internal/flowsrc"

// Demand, Buffer and the optional capability interfaces are shared with
// the baseline transports; see package flowsrc for the definitions.
type (
	// Demand is the traffic source a VM-pair drains.
	Demand = flowsrc.Source
	// Buffer is the basic demand buffer.
	Buffer = flowsrc.Buffer
	// deliveryObserver observes end-to-end acknowledged bytes.
	deliveryObserver = flowsrc.DeliveryObserver
	// requeuer takes lost bytes back for retransmission.
	requeuer = flowsrc.Requeuer
)
