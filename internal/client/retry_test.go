package client

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/transport"
)

// TestCloseConcurrent closes one client from many goroutines at once:
// the client is documented safe for concurrent use, so racing Closes
// must neither panic on a double close nor race (run under -race).
func TestCloseConcurrent(t *testing.T) {
	cl, _ := startCluster(t)
	for round := 0; round < 20; round++ {
		c, err := Dial(cl.Fabric, []string{core.NodeAddr(0)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.Close()
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestLateReplyToEarlierAttemptCompletes delays the reply to a put's
// first attempt past the timeout and drops every later attempt: the
// operation must succeed from the late reply, because an op keeps all
// its attempts' ids live until it completes.
func TestLateReplyToEarlierAttemptCompletes(t *testing.T) {
	cl, err := core.StartCluster(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	const timeout = 250 * time.Millisecond
	c, err := Dial(cl.Fabric, []string{core.NodeAddr(0)}, Options{Timeout: timeout, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Only the put carries a value this large, so packet size tells
	// its attempts from the resolves in between.
	const big = 8 << 10
	me := c.ep.Addr()
	var attempts atomic.Int32
	var delayed atomic.Bool
	cl.Fabric.SetFaultFunc(func(from, to string, size int) transport.FaultAction {
		switch {
		case from == me && size > big:
			if attempts.Add(1) > 1 {
				return transport.FaultAction{Drop: true}
			}
		case to == me && attempts.Load() == 1 && delayed.CompareAndSwap(false, true):
			return transport.FaultAction{Delay: 3 * timeout / 2}
		}
		return transport.FaultAction{}
	})
	defer cl.Fabric.SetFaultFunc(nil)

	val := bytes.Repeat([]byte("L"), big+1)
	ver, err := c.PutIn("late", val, 2)
	if err != nil || ver != 1 {
		t.Fatalf("put = v%d, %v; want v1 from the late reply", ver, err)
	}
	if n := attempts.Load(); n < 2 {
		t.Fatalf("%d attempts sent: the first should have timed out and been retried", n)
	}
	cl.Fabric.SetFaultFunc(nil)
	got, ver, err := c.Get("late")
	if err != nil || ver != 1 || !bytes.Equal(got, val) {
		t.Fatalf("get = v%d, %v", ver, err)
	}
}
