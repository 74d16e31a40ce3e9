package main

import (
	"net"
	"reflect"
	"testing"

	"homeguard/internal/fleet"
	"homeguard/internal/rpc"
	"homeguard/internal/rpc/paritytest"
)

// TestTransportParity drives the SAME operation sequence through the
// daemon's HTTP edge and its RPC edge (each over its own fleet) and
// asserts the two transports agree on every payload and every error
// (see paritytest.Run), then that both fleets counted the same work.
func TestTransportParity(t *testing.T) {
	httpSrv := newServer(fleet.Options{Shards: 4})

	rpcBack := newServer(fleet.Options{Shards: 4})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := rpc.NewServer(rpcBack.svc, rpc.ServerOptions{})
	go edge.Serve(lis)
	defer edge.Close()
	client, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	paritytest.Run(t, httpSrv.mux, client)

	// Both fleets processed the identical sequence: their metrics agree
	// on the load-bearing counters.
	hm, rm := httpSrv.fleet.Metrics(), rpcBack.fleet.Metrics()
	if hm.Installs != rm.Installs || hm.Reconfigures != rm.Reconfigures ||
		hm.InstallConflicts != rm.InstallConflicts || !reflect.DeepEqual(hm.ThreatsByKind, rm.ThreatsByKind) {
		t.Errorf("fleet metrics diverge:\n  http: installs=%d reconf=%d conflicts=%d threats=%v\n  rpc:  installs=%d reconf=%d conflicts=%d threats=%v",
			hm.Installs, hm.Reconfigures, hm.InstallConflicts, hm.ThreatsByKind,
			rm.Installs, rm.Reconfigures, rm.InstallConflicts, rm.ThreatsByKind)
	}
}
