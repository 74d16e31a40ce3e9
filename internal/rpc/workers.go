package rpc

import (
	"runtime"
	"sync/atomic"
)

// workerPool runs short tasks on long-lived goroutines. A fresh
// goroutine starts on a 2 KB stack and grows it again for every
// install (a JSON decode, the fleet's lock and detection, a JSON
// encode); a worker that already ran one keeps the grown stack for the
// next. Handing a task to an idle worker over an unbuffered channel
// costs one channel operation instead of a goroutine start plus
// several stack copies.
//
// Tasks never wait for a worker: with none idle, run starts a fresh
// goroutine, which joins the pool when its task ends if fewer than
// maxIdle are idle and exits otherwise. Idle workers are parked on the
// channel for the life of the process, so the pool holds at most
// maxIdle goroutines while nothing runs.
type workerPool struct {
	work    chan func()
	idle    atomic.Int32
	maxIdle int32
}

// idlePerProc is the idle-worker cap per GOMAXPROCS. A unary RPC
// occupies two workers at a time (its handler and the stage op it
// waits on), so four per processor keeps two RPCs per processor warm.
const idlePerProc = 4

// workers is the one pool the server's RPC handlers and the service's
// stage ops share. Like a sync.Pool it holds no state a caller can
// observe beyond speed.
var workers = &workerPool{
	work:    make(chan func()),
	maxIdle: int32(idlePerProc * runtime.GOMAXPROCS(0)),
}

// run executes fn on an idle worker, or on a fresh goroutine if none
// is idle. fn must not panic: a panic ends the process, as in any
// goroutine.
func (p *workerPool) run(fn func()) {
	select {
	case p.work <- fn:
	default:
		go p.loop(fn)
	}
}

// loop runs fn, then serves further tasks while the pool has room for
// another idle worker.
func (p *workerPool) loop(fn func()) {
	for {
		fn()
		if p.idle.Add(1) > p.maxIdle {
			p.idle.Add(-1)
			return
		}
		fn = <-p.work
		p.idle.Add(-1)
	}
}
