package mermaid_test

// Executable documentation: these examples run under `go test` and
// appear in godoc.

import (
	"fmt"
	"reflect"
	"time"

	mermaid "repro"
)

// A value written big-endian on a Sun, doubled little-endian on a
// Firefly, and read back on the Sun — converted in flight both ways.
func Example() {
	c, err := mermaid.New(mermaid.Config{
		Hosts: []mermaid.HostSpec{
			{Kind: mermaid.Sun},
			{Kind: mermaid.Firefly, CPUs: 4},
		},
		Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	c.DefineSemaphore(1, 0, 0)
	double := c.MustRegisterFunc(func(e *mermaid.Env, args []uint32) {
		addr := mermaid.Addr(args[0])
		e.WriteInt32(addr, e.ReadInt32(addr)*2)
		e.V(1)
	})
	c.Run(0, func(e *mermaid.Env) {
		addr := e.MustAlloc(mermaid.Int32, 1)
		e.WriteInt32(addr, 21)
		if _, err := e.CreateThread(1, double, uint32(addr)); err != nil {
			panic(err)
		}
		e.P(1)
		fmt.Println(e.ReadInt32(addr))
	})
	// Output: 42
}

// Distributed synchronization: a barrier aligns threads on different
// machines, then a semaphore collects them.
func ExampleCluster_DefineBarrier() {
	c, err := mermaid.New(mermaid.Config{
		Hosts: []mermaid.HostSpec{
			{Kind: mermaid.Sun},
			{Kind: mermaid.Firefly, CPUs: 2},
			{Kind: mermaid.Firefly, CPUs: 2},
		},
		Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	const (
		barrier = 7
		done    = 8
	)
	c.DefineBarrier(barrier, 0, 2)
	c.DefineSemaphore(done, 0, 0)
	var after []time.Duration
	worker := c.MustRegisterFunc(func(e *mermaid.Env, args []uint32) {
		e.Compute(time.Duration(args[0]) * time.Millisecond)
		e.Barrier(barrier) // both release at the later arrival
		after = append(after, e.Now())
		e.V(done)
	})
	c.Run(0, func(e *mermaid.Env) {
		e.CreateThread(1, worker, 10)
		e.CreateThread(2, worker, 300)
		e.P(done)
		e.P(done)
	})
	// Both released at the later arrival (release messages travel the
	// wire, so allow their serialization on the shared medium).
	gap := after[1] - after[0]
	if gap < 0 {
		gap = -gap
	}
	fmt.Println(gap < 5*time.Millisecond, after[0] >= 300*time.Millisecond)
	// Output: true true
}

// The typed allocator keeps one data type per page, so floats and ints
// from interleaved allocations never share a page.
func ExampleEnv_Alloc() {
	c, err := mermaid.New(mermaid.Config{
		Hosts: []mermaid.HostSpec{{Kind: mermaid.Sun}},
		Seed:  1,
	})
	if err != nil {
		panic(err)
	}
	c.Run(0, func(e *mermaid.Env) {
		ints := e.MustAlloc(mermaid.Int32, 10)
		floats := e.MustAlloc(mermaid.Float64, 10)
		moreInts := e.MustAlloc(mermaid.Int32, 10)
		fmt.Println(samePage(ints, floats), samePage(ints, moreInts))
	})
	// Output: false true
}

func samePage(a, b mermaid.Addr) bool {
	return a/mermaid.LargestPageSize == b/mermaid.LargestPageSize
}

// Pointers stored in shared memory are rebased when their page moves
// between unlike hosts (§2.3): a list linked on a Sun, whose shared
// region starts at 0x10000000, is walked on a Firefly, whose region
// starts at 0x20000000.
func ExampleEnv_ReadPointer() {
	c, err := mermaid.New(mermaid.Config{
		Hosts: []mermaid.HostSpec{{Kind: mermaid.Sun}, {Kind: mermaid.Firefly, CPUs: 2}},
		Seed:  1,
	})
	if err != nil {
		panic(err)
	}
	c.DefineSemaphore(1, 0, 0)
	const nodes = 50
	// One type per page: values and next pointers are parallel arrays.
	var values, next mermaid.Addr
	walk := c.MustRegisterFunc(func(e *mermaid.Env, args []uint32) {
		sum, count := int32(0), 0
		for cur, ok := mermaid.Addr(args[0]), true; ok; count++ {
			sum += e.ReadInt32(cur)
			cur, ok = e.ReadPointer(next + (cur - values))
		}
		fmt.Println(count, "nodes, sum", sum)
		e.V(1)
	})
	c.Run(0, func(e *mermaid.Env) {
		values = e.MustAlloc(mermaid.Int32, nodes)
		next = e.MustAlloc(mermaid.Pointer, nodes)
		// Stride 13 is coprime with 50: the list visits every node once,
		// its pointers jumping around the array; the last one is null.
		cur := 0
		for i := 0; i < nodes; i++ {
			succ := (cur + 13) % nodes
			e.WriteInt32(values+mermaid.Addr(4*cur), int32(cur*cur+1))
			e.WritePointer(next+mermaid.Addr(4*cur), values+mermaid.Addr(4*succ), i < nodes-1)
			cur = succ
		}
		if _, err := e.CreateThread(1, walk, uint32(values)); err != nil {
			panic(err)
		}
		e.P(1)
	})
	// Output: 50 nodes, sum 40475
}

// A compound type's conversion routine derived from a Go struct
// declaration (the "automatic generation of the conversion routines"
// §5 lists as work in progress): records written big-endian with IEEE
// floats on a Sun read back right on a little-endian, VAX-float Firefly.
func ExampleCluster_RegisterGoStruct() {
	type star struct {
		ID        int32      // offset 0
		Position  [3]float32 // offset 4
		Magnitude float64    // offset 16
		Name      [8]int8    // offset 24
	}
	const size, stars = 32, 2
	c, err := mermaid.New(mermaid.Config{
		Hosts: []mermaid.HostSpec{{Kind: mermaid.Sun}, {Kind: mermaid.Firefly, CPUs: 2}},
		Seed:  1,
	})
	if err != nil {
		panic(err)
	}
	c.DefineSemaphore(1, 0, 0)
	starType, err := c.RegisterGoStruct(reflect.TypeOf(star{}))
	if err != nil {
		panic(err)
	}
	var table mermaid.Addr
	show := c.MustRegisterFunc(func(e *mermaid.Env, args []uint32) {
		buf := make([]byte, stars*size)
		e.ReadStruct(table, starType, buf)
		for i := 0; i < stars; i++ {
			rec := buf[i*size:]
			fmt.Println(e.Int32At(rec, 0), e.Float32At(rec, 8), e.Float64At(rec, 16), string(rec[24:32]))
		}
		e.V(1)
	})
	c.Run(0, func(e *mermaid.Env) {
		table = e.MustAlloc(starType, stars)
		buf := make([]byte, stars*size)
		for i := 0; i < stars; i++ {
			rec := buf[i*size:]
			e.PutInt32At(rec, 0, int32(i+1))
			for j := 0; j < 3; j++ {
				e.PutFloat32At(rec, 4+4*j, float32(i)+0.25*float32(j))
			}
			e.PutFloat64At(rec, 16, float64(i+1)*1.5)
			copy(rec[24:32], fmt.Sprintf("star-%03d", i+1))
		}
		e.WriteStruct(table, starType, buf)
		if _, err := e.CreateThread(1, show); err != nil {
			panic(err)
		}
		e.P(1)
	})
	// Output:
	// 1 0.25 1.5 star-001
	// 2 1.25 3 star-002
}

// One producer-consumer workload under the four coherence algorithms
// (§2.1: the right DSM package depends on the access pattern). Two
// Firefly consumers poll a value the Sun keeps rewriting; write-update
// pushes each small write to the replicas, so they read locally
// throughout.
func ExamplePolicy() {
	for _, pol := range []mermaid.Policy{mermaid.MRSW, mermaid.Migration, mermaid.Central, mermaid.Update} {
		c, err := mermaid.New(mermaid.Config{
			Hosts: []mermaid.HostSpec{
				{Kind: mermaid.Sun},
				{Kind: mermaid.Firefly, CPUs: 2},
				{Kind: mermaid.Firefly, CPUs: 2},
			},
			Seed:   1,
			Policy: pol,
		})
		if err != nil {
			panic(err)
		}
		c.DefineSemaphore(1, 0, 0)
		var addr mermaid.Addr
		consumer := c.MustRegisterFunc(func(e *mermaid.Env, args []uint32) {
			for i := 0; i < 120; i++ {
				_ = e.ReadInt32(addr)
				e.Compute(2 * time.Millisecond)
			}
			e.V(1)
		})
		producer := c.MustRegisterFunc(func(e *mermaid.Env, args []uint32) {
			for i := 1; i <= 15; i++ {
				e.Compute(20 * time.Millisecond)
				e.WriteInt32(addr, int32(i))
			}
			e.V(1)
		})
		elapsed := c.Run(0, func(e *mermaid.Env) {
			addr = e.MustAlloc(mermaid.Int32, 16)
			e.WriteInt32(addr, 0)
			for h, fn := range []mermaid.FuncID{producer, consumer, consumer} {
				if _, err := e.CreateThread(mermaid.HostID(h), fn); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 3; i++ {
				e.P(1)
			}
		})
		c.Close()
		fmt.Printf("%-9v %.2f s\n", pol, elapsed.Seconds())
	}
	// Output:
	// MRSW      0.67 s
	// migration 1.10 s
	// central   1.20 s
	// update    0.57 s
}
