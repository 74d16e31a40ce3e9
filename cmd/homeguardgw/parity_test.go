package main

import (
	"net"
	"testing"

	"homeguard/internal/rpc"
	"homeguard/internal/rpc/paritytest"
)

// TestTransportParity runs the daemon's transport-parity sequence
// through the gateway's two edges, each in front of its own pair of
// nodes. The gateway is the one binary that both serves HGRPC and
// dials it, so the RPC leg crosses the wire protocol twice (client to
// gateway, gateway to node) and must still answer exactly as the HTTP
// leg does.
func TestTransportParity(t *testing.T) {
	httpRouter := newTestRouter(t, startNode(t, "node-a"), startNode(t, "node-b"))
	httpEdge := newGateway(httpRouter, httpRouter.obs)

	rpcRouter := newTestRouter(t, startNode(t, "node-a"), startNode(t, "node-b"))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := rpc.NewServer(rpcRouter, rpc.ServerOptions{})
	go edge.Serve(lis)
	defer edge.Close()
	client, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	paritytest.Run(t, httpEdge.mux, client)
}
