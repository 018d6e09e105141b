package netretry

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

type msg struct{ N int }

var testPolicy = Policy{
	DialTimeout:    200 * time.Millisecond,
	RequestTimeout: 5 * time.Second,
	BackoffBase:    time.Millisecond,
	BackoffMax:     5 * time.Millisecond,
}

// echoPeer answers every message with itself.
func echoPeer(t *testing.T) string {
	t.Helper()
	l, err := Listen("127.0.0.1:0", func(conn net.Conn) {
		wire := NewJSONConn(conn, 1<<10)
		for {
			var m msg
			if wire.Recv(&m) != nil || wire.Send(&m) != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr()
}

// Close races calls in flight (run it under -race): each call succeeds or
// fails with ErrClosed, and every call after Close fails with ErrClosed.
func TestClientCloseRacesCalls(t *testing.T) {
	const callers = 4
	c := NewClient(testPolicy, 3, 1<<10, echoPeer(t))
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	called := make(chan struct{}, callers) // one send per caller, after its first call
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				var out msg
				err := c.Call(&msg{N: i}, &out)
				if i == 0 {
					called <- struct{}{}
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil || out.N != i {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < callers; g++ {
		<-called
	}
	c.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("call during Close: %v", err)
	}
	if err := c.Call(&msg{}, &msg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: %v, want ErrClosed", err)
	}
}
