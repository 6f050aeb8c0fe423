package bufpool

import (
	"sync"
	"testing"
)

func TestGetLengthAndClasses(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1400, 8192, 1 << 17} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) length %d", n, len(b))
		}
		Put(b)
	}
	if Get(0) != nil {
		t.Error("Get(0) != nil")
	}
	// Oversized requests fall back to the allocator but still work.
	big := Get(1<<17 + 1)
	if len(big) != 1<<17+1 {
		t.Fatalf("oversized Get length %d", len(big))
	}
	Put(big)
}

func TestRecycling(t *testing.T) {
	b := Get(1024)
	b[0] = 0xaa
	Put(b)
	c := Get(1000) // rounds up to the same class: must come back resliced
	if &b[0] != &c[0] {
		t.Error("Put buffer was not recycled by the next Get of its class")
	}
	Put(c)
}

func TestPutDropsUnpoolable(t *testing.T) {
	Put(nil)               // must not panic
	Put(make([]byte, 8))   // below the smallest class: dropped
	Put(make([]byte, 100)) // odd capacity: filed under the class it covers
	b := Get(64)
	Put(b)
}

// TestSteadyStateZeroAllocs is the pool's core contract: a warm
// Get/Put cycle performs no allocation, including Put (the reason this
// is not sync.Pool, whose Put boxes the slice header).
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, n := range []int{64, 1400, 8192} {
		Put(Get(n)) // warm the class
		avg := testing.AllocsPerRun(200, func() {
			b := Get(n)
			b[0] = 1
			Put(b)
		})
		if avg != 0 {
			t.Errorf("Get(%d)/Put allocates %.1f times per run, want 0", n, avg)
		}
	}
}

// TestPutOwnershipChecks holds Put's two run-time checks to what they
// promise: a buffer put twice panics, a retired buffer's first
// poisonLen bytes read poison (and no byte past them changes), and
// neither a buffer re-got and put once more nor one the full free list
// dropped is taken for a double Put.
func TestPutOwnershipChecks(t *testing.T) {
	const n = 4096 // a class no other test here fills
	for _, tc := range []struct {
		name  string
		puts  func(t *testing.T, b []byte)
		panic any
	}{
		{"double Put", func(t *testing.T, b []byte) { Put(b); Put(b) }, "bufpool: buffer put twice"},
		{"one Put poisons the prefix", func(t *testing.T, b []byte) { Put(b) }, nil},
		{"re-Get then one Put", func(t *testing.T, b []byte) {
			Put(b)
			if c := Get(n); &c[0] != &b[0] {
				t.Fatal("the next Get of the class did not return the buffer just put")
			}
			Put(b)
		}, nil},
		{"dropped by a full list, then put again", func(t *testing.T, b []byte) {
			held := make([][]byte, perClass)
			for i := range held {
				held[i] = Get(n)
			}
			for _, h := range held {
				Put(h)
			}
			Put(b) // the list is full: dropped
			for range held {
				Get(n)
			}
			Put(b)
			for _, h := range held {
				Put(h)
			}
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := Get(n)
			for i := range b {
				b[i] = 0x11
			}
			got := func() (r any) {
				defer func() { r = recover() }()
				tc.puts(t, b)
				return nil
			}()
			if got != tc.panic {
				t.Fatalf("panic %v, want %v", got, tc.panic)
			}
			for i, v := range b[:poisonLen] {
				if v != poison {
					t.Fatalf("byte %d of the put buffer reads %#x, want the poison", i, v)
				}
			}
			if b[poisonLen] != 0x11 {
				t.Fatalf("byte %d, past the poisoned prefix, changed", poisonLen)
			}
		})
	}
}

// TestConcurrentGetPut has goroutines cycle buffers of every class
// through the pool at once: under -race it checks that the double-Put
// scan and the poisoning touch no state unsynchronized, and each
// goroutine checks that no buffer it holds is handed to another.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := Get(1 << (minClassBits + i%numClasses))
				for j := range b {
					b[j] = byte(g)
				}
				for _, v := range b {
					if v != byte(g) {
						t.Errorf("goroutine %d: a buffer it holds was written by another", g)
						return
					}
				}
				Put(b)
			}
		}()
	}
	wg.Wait()
}

// TestClassBoundaries pins the size-class arithmetic: Get takes the
// smallest class holding n bytes, and Put files a buffer under the
// largest class its capacity fully covers.
func TestClassBoundaries(t *testing.T) {
	for n, want := range map[int]int{1: 0, 64: 0, 65: 1, 128: 1, 129: 2, 1 << 17: numClasses - 1, 1<<17 + 1: -1} {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
	for c, want := range map[int]int{64: 0, 127: 0, 128: 1, 8191: 6, 8192: 7, 1 << 20: numClasses - 1} {
		room := Get(1 << (minClassBits + want)) // the class's list is not full
		b := make([]byte, 0, c)
		Put(b)
		cl := &classes[want]
		cl.mu.Lock()
		last := cl.free[len(cl.free)-1]
		cl.free = cl.free[:len(cl.free)-1]
		cl.mu.Unlock()
		if &last[0] != &b[:1][0] {
			t.Errorf("a buffer of capacity %d was not filed under class %d", c, want)
		}
		Put(room)
	}
}
