package rpc

import (
	"context"
	"net"
	"strconv"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
)

// BenchmarkRPCInstallWarm measures one unary Install through the whole
// HGRPC edge — client encode, frame write, server read and dispatch,
// the fleet install, reply encode and client decode — over loopback
// TCP, with the extraction and pair-verdict caches warmed before the
// timer so the edge's share is what varies. Each iteration installs the
// next of four corpus apps, four to a home, so homes fill the way an
// install storm fills them. allocs/op covers client and server both;
// CI gates it against BENCH_pr7.json.
func BenchmarkRPCInstallWarm(b *testing.B) {
	svc := NewService(fleet.New(fleet.Options{Shards: 16}), ServiceOptions{})
	srv := NewServer(svc, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	client, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	apps := corpus.All()[:4]
	ctx := context.Background()
	for _, app := range apps {
		if _, err := client.Install(ctx, &api.InstallRequest{Home: "warm", Corpus: app.Name}); err != nil {
			b.Fatal(err)
		}
	}
	reqs := make([]api.InstallRequest, b.N)
	for i := range reqs {
		reqs[i] = api.InstallRequest{Home: "h" + strconv.Itoa(i/len(apps)), Corpus: apps[i%len(apps)].Name}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range reqs {
		if _, err := client.Install(ctx, &reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
}
