package workload

import (
	"math"
	"math/rand"
	"testing"

	"ufab/internal/flowsrc"
	"ufab/internal/sim"
)

func TestMessagesFIFOCompletion(t *testing.T) {
	m := &Messages{}
	var fcts []sim.Duration
	m.OnComplete = func(msg Message, fct sim.Duration) { fcts = append(fcts, fct) }
	m.Send(1000, 0)
	m.Send(500, 10*sim.Microsecond)
	if m.Pending() != 1500 || m.Outstanding() != 2 {
		t.Fatalf("pending=%d outstanding=%d", m.Pending(), m.Outstanding())
	}
	m.Consume(1500)
	// Partial delivery completes only the first message.
	m.Delivered(1200, 100*sim.Microsecond)
	if m.Completed != 1 || len(fcts) != 1 || fcts[0] != 100*sim.Microsecond {
		t.Fatalf("completed=%d fcts=%v", m.Completed, fcts)
	}
	m.Delivered(300, 150*sim.Microsecond)
	if m.Completed != 2 || fcts[1] != 140*sim.Microsecond {
		t.Fatalf("completed=%d fcts=%v", m.Completed, fcts)
	}
	if m.Outstanding() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestMessagesKickOnSend(t *testing.T) {
	m := &Messages{}
	kicked := 0
	m.SetKick(func() { kicked++ })
	m.Send(100, 0)
	if kicked != 1 {
		t.Fatalf("kicked = %d", kicked)
	}
}

func TestMessagesRequeue(t *testing.T) {
	m := &Messages{}
	m.Send(1000, 0)
	m.Consume(1000)
	m.Requeue(400) // lost bytes come back
	if m.Pending() != 400 {
		t.Fatalf("pending = %d", m.Pending())
	}
	m.Consume(400)
	m.Delivered(1000, sim.Millisecond)
	if m.Completed != 1 {
		t.Fatal("message did not complete after retransmission")
	}
}

func TestMessagesBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send(0) did not panic")
		}
	}()
	(&Messages{}).Send(0, 0)
}

func TestFixedRate(t *testing.T) {
	eng := sim.New()
	buf := &flowsrc.Buffer{}
	stop := FixedRate(eng, buf, 1e9, 100*sim.Microsecond)
	eng.RunUntil(10 * sim.Millisecond)
	stop()
	// 1 Gbps for 10 ms = 1.25 MB.
	got := buf.Pending()
	if got < 1_200_000 || got > 1_300_000 {
		t.Fatalf("fed %d bytes, want ≈1.25 MB", got)
	}
}

func TestOnOffAlternates(t *testing.T) {
	eng := sim.New()
	buf := &flowsrc.Buffer{}
	stop := OnOff(eng, buf, 500e6, 4*sim.Millisecond, 10<<20)
	// During the first (underload) phase the buffer accumulates at
	// ≈500 Mbps; consume nothing and check magnitude.
	eng.RunUntil(3 * sim.Millisecond)
	under := buf.Pending()
	want := int64(500e6 * 0.003 / 8)
	if math.Abs(float64(under-want)) > 0.3*float64(want) {
		t.Fatalf("underload fed %d, want ≈%d", under, want)
	}
	// After the flip, a large backlog appears.
	eng.RunUntil(5 * sim.Millisecond)
	if buf.Pending() < 10<<20 {
		t.Fatalf("unlimited phase pending = %d, want ≥ chunk", buf.Pending())
	}
	stop()
}

func TestSizeDistSampleInRange(t *testing.T) {
	for _, d := range []*SizeDist{WebSearch(), KeyValue()} {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			s := d.Sample(rng)
			if s < d.Sizes[0]/2 || s > d.Sizes[len(d.Sizes)-1] {
				t.Fatalf("sample %d out of range", s)
			}
		}
	}
}

func TestKeyValueMeanNearTwoKB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := KeyValue()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	mean := sum / n
	// Paper: "mean size of 2KB".
	if mean < 1200 || mean > 3500 {
		t.Fatalf("KV mean = %.0f bytes, want ≈2KB", mean)
	}
}

func TestWebSearchHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := WebSearch()
	small, bigBytes, total := 0, 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		s := float64(d.Sample(rng))
		total += s
		if s < 100_000 {
			small++
		} else if s > 1_000_000 {
			bigBytes += s
		}
	}
	if frac := float64(small) / n; frac < 0.5 {
		t.Errorf("small-flow fraction = %.2f, want most flows small", frac)
	}
	if frac := bigBytes / total; frac < 0.4 {
		t.Errorf("big-flow byte share = %.2f, want most bytes in large flows", frac)
	}
}

func TestPoissonLoad(t *testing.T) {
	eng := sim.New()
	rng := rand.New(rand.NewSource(4))
	d := WebSearch()
	var bytes int64
	stop := Poisson(eng, rng, d, 5e9, func(size int64, now sim.Time) { bytes += size })
	eng.RunUntil(200 * sim.Millisecond)
	stop()
	offered := float64(bytes*8) / 0.2
	if offered < 3.5e9 || offered > 6.5e9 {
		t.Fatalf("offered load = %.2f Gbps, want ≈5", offered/1e9)
	}
}

func TestMessagesSharing(t *testing.T) {
	m := &Messages{Sharing: true}
	var done []int64
	m.OnComplete = func(msg Message, fct sim.Duration) { done = append(done, msg.Size) }
	m.Send(1000, 0)
	m.Send(100, 0)
	m.Consume(1100)
	// FIFO would leave both incomplete after 200 bytes; sharing gives
	// 100 each, completing the small message.
	m.Delivered(200, sim.Microsecond)
	if len(done) != 1 || done[0] != 100 {
		t.Fatalf("shared delivery completed %v, want the 100-byte message", done)
	}
	// The rest completes the big one.
	m.Delivered(900, 2*sim.Microsecond)
	if len(done) != 2 || done[1] != 1000 {
		t.Fatalf("completions %v", done)
	}
	if m.Outstanding() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestMessagesSharingManySmallBehindLarge(t *testing.T) {
	m := &Messages{Sharing: true}
	completed := 0
	m.OnComplete = func(msg Message, fct sim.Duration) {
		if msg.Size == 10 {
			completed++
		}
	}
	m.Send(1_000_000, 0)
	for i := 0; i < 10; i++ {
		m.Send(10, 0)
	}
	m.Consume(m.Pending())
	m.Delivered(1000, sim.Microsecond)
	if completed != 10 {
		t.Fatalf("only %d/10 small messages completed under sharing", completed)
	}
}
