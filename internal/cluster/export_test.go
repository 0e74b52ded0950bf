package cluster

import "context"

// Ping round-trips the liveness probe the node answers (msgPing/msgPong).
func (p *peerClient) Ping(ctx context.Context) error {
	var idb [8]byte
	_, err := p.call(ctx, msgPing, idb[:])
	return err
}
