package event

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPublishFansOutPerTopic(t *testing.T) {
	b := NewBus(16)
	defer b.Close()
	a, err := b.Subscribe("fp-a", 4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := b.Subscribe("", 4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.Subscribe("fp-b", 4)
	if err != nil {
		t.Fatal(err)
	}

	ev := b.Publish(KindPut, "fp-a")
	if ev.Seq != 1 || ev.Kind != KindPut || ev.Fingerprint != "fp-a" {
		t.Fatalf("published event = %+v", ev)
	}
	got := <-a.Events()
	if got != ev {
		t.Fatalf("topic subscriber got %+v, want %+v", got, ev)
	}
	if got := <-all.Events(); got != ev {
		t.Fatalf("subscribe-all got %+v, want %+v", got, ev)
	}
	select {
	case stray := <-other.Events():
		t.Fatalf("fp-b subscriber received fp-a event %+v", stray)
	default:
	}
}

func TestSequenceIsMonotonicAcrossTopics(t *testing.T) {
	b := NewBus(16)
	defer b.Close()
	var last uint64
	for i := 0; i < 5; i++ {
		ev := b.Publish(KindPut, fmt.Sprintf("fp-%d", i%2))
		if ev.Seq <= last {
			t.Fatalf("seq %d not monotonic after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
}

func TestSlowSubscriberDropsWithCounterWithoutBlocking(t *testing.T) {
	b := NewBus(16)
	defer b.Close()
	sub, err := b.Subscribe("fp", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Never drained: the first two publishes fill the buffer, the rest
	// must drop — counted — and return immediately.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			b.Publish(KindPut, "fp")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber buffer")
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("subscription dropped %d events, want 8", got)
	}
	if got := b.Dropped(); got != 8 {
		t.Fatalf("bus dropped %d events, want 8", got)
	}
	// The buffered events are still the oldest two, in order.
	if ev := <-sub.Events(); ev.Seq != 1 {
		t.Fatalf("first buffered event seq = %d, want 1", ev.Seq)
	}
	if ev := <-sub.Events(); ev.Seq != 2 {
		t.Fatalf("second buffered event seq = %d, want 2", ev.Seq)
	}
}

func TestReplayFiltersTopicAndCursor(t *testing.T) {
	b := NewBus(4)
	defer b.Close()
	b.Publish(KindPut, "a")         // seq 1
	b.Publish(KindPut, "b")         // seq 2
	b.Publish(KindPut, "a")         // seq 3
	b.Publish(KindInvalidated, "a") // seq 4

	got := b.Replay("a", 1)
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("Replay(a, 1) = %+v", got)
	}
	if all := b.Replay("", 0); len(all) != 4 {
		t.Fatalf("Replay(all, 0) returned %d events, want 4", len(all))
	}

	// The ring holds only the last 4: a 5th publish evicts seq 1.
	b.Publish(KindPut, "a") // seq 5
	got = b.Replay("", 0)
	if len(got) != 4 || got[0].Seq != 2 {
		t.Fatalf("after ring wrap Replay(all, 0) = %+v", got)
	}
}

func TestCancelStopsDeliveryAndCloses(t *testing.T) {
	b := NewBus(4)
	defer b.Close()
	sub, err := b.Subscribe("fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.Events(); ok {
		t.Fatal("cancelled subscription's channel still open")
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed after Cancel")
	}
	b.Publish(KindPut, "fp") // must not panic (send on closed channel)
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("subscribers after cancel = %d, want 0", n)
	}
}

func TestCloseTerminatesSubscribersAndRefusesNew(t *testing.T) {
	b := NewBus(4)
	sub, err := b.Subscribe("fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close() // idempotent
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription channel still open after bus Close")
	}
	if _, err := b.Subscribe("fp", 4); err != ErrClosed {
		t.Fatalf("Subscribe on closed bus: err = %v, want ErrClosed", err)
	}
	if ev := b.Publish(KindPut, "fp"); ev.Seq != 0 {
		t.Fatalf("Publish on closed bus returned %+v, want zero Event", ev)
	}
	sub.Cancel() // after-Close cancel must be a safe no-op
}

func TestConcurrentPublishSubscribeCancel(t *testing.T) {
	b := NewBus(64)
	defer b.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub, err := b.Subscribe(fmt.Sprintf("fp-%d", i%4), 1)
				if err != nil {
					t.Error(err)
					return
				}
				b.Publish(KindPut, fmt.Sprintf("fp-%d", i%4))
				sub.Cancel()
			}
		}(g)
	}
	wg.Wait()
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("subscribers left registered: %d", n)
	}
}
