package comm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tally"
)

// Table-driven tests of the typed collectives. Every case runs over the
// world communicator and over Split sub-communicators (grid rows), at
// several world sizes including 1, with empty payloads included, verifying
// the typed zero-reflection exchange end to end.

// commUnderTest names one communicator to exercise: the world itself, or a
// row sub-communicator of a 2-column split.
type commUnderTest struct {
	name  string
	build func(c *Comm) *Comm
}

func commsUnderTest() []commUnderTest {
	return []commUnderTest{
		{"world", func(c *Comm) *Comm { return c }},
		{"split-rows", func(c *Comm) *Comm {
			cols := 2
			if c.Size() < 2 {
				cols = 1
			}
			return c.Split(c.Rank()/cols, c.Rank()%cols)
		}},
	}
}

func worldSizes() []int { return []int{1, 2, 4, 6} }

// forEachComm runs body on every (world size, communicator) combination.
func forEachComm(t *testing.T, body func(t *testing.T, world, sub *Comm)) {
	t.Helper()
	for _, p := range worldSizes() {
		for _, cut := range commsUnderTest() {
			t.Run(fmt.Sprintf("p%d/%s", p, cut.name), func(t *testing.T) {
				Run(p, nil, func(c *Comm) {
					body(t, c, cut.build(c))
				})
			})
		}
	}
}

func TestTableAllGather(t *testing.T) {
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		got := AllGather(sub, sub.Rank()*7)
		if len(got) != sub.Size() {
			t.Errorf("len %d, want %d", len(got), sub.Size())
		}
		for r, v := range got {
			if v != r*7 {
				t.Errorf("got[%d] = %d, want %d", r, v, r*7)
			}
		}
	})
}

func TestTableAllGathervEmptyPayloads(t *testing.T) {
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		// Odd ranks contribute nothing; rank r contributes r copies of r.
		var local []int
		if sub.Rank()%2 == 0 {
			for k := 0; k < sub.Rank(); k++ {
				local = append(local, sub.Rank())
			}
		}
		got := AllGathervConcat(sub, local)
		var want []int
		for r := 0; r < sub.Size(); r += 2 {
			for k := 0; k < r; k++ {
				want = append(want, r)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("rank %d got %v, want %v", sub.Rank(), got, want)
		}
	})
}

func TestTableAllGathervConcatInto(t *testing.T) {
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		scratch := make([]int64, 0, 64)
		for round := 0; round < 3; round++ {
			local := []int64{int64(sub.Rank()*10 + round)}
			if sub.Rank() == 0 {
				local = nil // empty contribution from rank 0
			}
			scratch = AllGathervConcatInto(sub, local, scratch)
			want := sub.Size() - 1
			if sub.Size() == 1 {
				want = 0
			}
			if len(scratch) != want {
				t.Fatalf("round %d: len %d, want %d", round, len(scratch), want)
			}
			for k, v := range scratch {
				if v != int64((k+1)*10+round) {
					t.Errorf("round %d: got[%d] = %d", round, k, v)
				}
			}
		}
	})
}

func TestTableAllToAllv(t *testing.T) {
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		p := sub.Size()
		send := make([][]int, p)
		for dst := 0; dst < p; dst++ {
			for k := 0; k <= (sub.Rank()+dst)%3; k++ {
				send[dst] = append(send[dst], sub.Rank()*100+dst)
			}
		}
		recv := allToAllv(sub, send)
		for src := 0; src < p; src++ {
			want := (src+sub.Rank())%3 + 1
			if len(recv[src]) != want {
				t.Errorf("from %d: %d items, want %d", src, len(recv[src]), want)
			}
			for _, v := range recv[src] {
				if v != src*100+sub.Rank() {
					t.Errorf("from %d: value %d", src, v)
				}
			}
		}
	})
}

// TestTableAllToAllvConcat runs the table through both prices of the
// exchange: the two functions move the same data and count the same
// traffic, and only the clock advance differs (α·(q−1) against α per
// non-empty send, plus β·max(sent, received) for both).
func TestTableAllToAllvConcat(t *testing.T) {
	exchanges := []struct {
		name string
		f    func(*Comm, [][]int, []int, []int) ([]int, []int)
	}{
		{"dense", AllToAllvConcat[int]},
		{"neighbor", NeighborAllToAllvConcat[int]},
	}
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		p := sub.Size()
		m := tally.Edison() // the model Run uses when given nil
		send := make([][]int, p)
		for dst := 0; dst < p; dst++ {
			if dst%2 == 1 {
				continue // empty buffers to odd destinations
			}
			for k := 0; k < sub.Rank()+1; k++ {
				send[dst] = append(send[dst], sub.Rank()*100+dst)
			}
		}
		var sent, msgs int64
		for dst, b := range send {
			if dst != sub.Rank() && len(b) > 0 {
				sent += int64(len(b))
				msgs++
			}
		}
		var scratch []int
		var counts []int
		// Rounds 0 and 1 reuse the scratch; round 2 sends nothing at all.
		for round := 0; round < 3; round++ {
			if round == 2 {
				send, sent, msgs = make([][]int, p), 0, 0
			}
			var traffic [2][2]int64 // per exchange: Msgs, Words counted
			for e, ex := range exchanges {
				sub.Barrier() // equal clocks across the group
				st := sub.Stats()
				clock, m0, w0 := st.ClockNs(), st.Msgs, st.Words
				scratch, counts = ex.f(sub, send, scratch, counts)
				traffic[e] = [2]int64{st.Msgs - m0, st.Words - w0}
				pos := 0
				for src := 0; src < p; src++ {
					want := 0
					if sub.Rank()%2 == 0 && round < 2 {
						want = src + 1
					}
					if counts[src] != want {
						t.Fatalf("%s round %d: counts[%d] = %d, want %d", ex.name, round, src, counts[src], want)
					}
					for k := 0; k < counts[src]; k++ {
						if scratch[pos+k] != src*100+sub.Rank() {
							t.Errorf("%s from %d item %d: %d", ex.name, src, k, scratch[pos+k])
						}
					}
					pos += counts[src]
				}
				if pos != len(scratch) {
					t.Fatalf("%s: counts sum %d != len %d", ex.name, pos, len(scratch))
				}
				// Received words include the rank's own piece, as in the
				// dense price.
				alphas := msgs
				if ex.name == "dense" {
					alphas = int64(p - 1)
				}
				wantClock := clock
				if p > 1 {
					wantClock += m.AlphaNs*float64(alphas) + m.BetaNsPerWord*float64(max(sent, int64(len(scratch))))
				}
				if got := st.ClockNs(); got != wantClock {
					t.Errorf("%s round %d: clock advanced %g ns, want %g", ex.name, round, got-clock, wantClock-clock)
				}
			}
			if traffic[0] != traffic[1] || traffic[0] != [2]int64{msgs, sent} {
				t.Errorf("round %d: traffic dense %v neighbor %v, want [%d %d]", round, traffic[0], traffic[1], msgs, sent)
			}
		}
	})
}

func TestTableAllReduceAndReduce(t *testing.T) {
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		p := sub.Size()
		sum := AllReduce(sub, sub.Rank()+1, func(a, b int) int { return a + b })
		if sum != p*(p+1)/2 {
			t.Errorf("allreduce sum = %d, want %d", sum, p*(p+1)/2)
		}
	})
}

func TestTableExScanGeneric(t *testing.T) {
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		prefix, total := ExScan(sub, int64(sub.Rank()+1))
		p := sub.Size()
		if total != int64(p*(p+1)/2) {
			t.Errorf("total = %d", total)
		}
		if prefix != int64(sub.Rank()*(sub.Rank()+1)/2) {
			t.Errorf("prefix = %d", prefix)
		}
		// Float instantiation.
		fp, ft := ExScan(sub, 0.5)
		if ft != float64(p)*0.5 || fp != float64(sub.Rank())*0.5 {
			t.Errorf("float exscan = (%f, %f)", fp, ft)
		}
	})
}

func TestTableBcastStruct(t *testing.T) {
	type payload struct {
		A int64
		B [3]int32
	}
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		v := payload{A: 42 + int64(sub.Rank()), B: [3]int32{1, 2, 3 + int32(sub.Rank())}}
		got := AllGather(sub, v)
		for r, pl := range got {
			if pl.A != 42+int64(r) || pl.B != [3]int32{1, 2, 3 + int32(r)} {
				t.Errorf("rank %d got %+v from rank %d", sub.Rank(), pl, r)
			}
		}
	})
}

func TestTableGathervEmpty(t *testing.T) {
	forEachComm(t, func(t *testing.T, world, sub *Comm) {
		var local []int
		if sub.Rank()%2 == 0 {
			local = []int{sub.Rank()}
		}
		got := Gatherv(sub, local, 0)
		if sub.Rank() != 0 {
			if got != nil {
				t.Errorf("non-root got %v", got)
			}
			return
		}
		want := (sub.Size() + 1) / 2
		if len(got) != want {
			t.Fatalf("root got %v, want %d evens", got, want)
		}
		for k, v := range got {
			if v != 2*k {
				t.Errorf("root got[%d] = %d", k, v)
			}
		}
	})
}

func TestExchangeIntoReuse(t *testing.T) {
	// 2x2 transpose pattern: 0<->0, 1<->2, 3<->3.
	partners := []int{0, 2, 1, 3}
	Run(4, nil, func(c *Comm) {
		scratch := make([]int, 0, 8)
		for round := 0; round < 3; round++ {
			data := []int{c.Rank()*11 + round}
			scratch = ExchangeInto(c, partners[c.Rank()], data, scratch)
			want := partners[c.Rank()]*11 + round
			if len(scratch) != 1 || scratch[0] != want {
				t.Errorf("round %d rank %d got %v, want [%d]", round, c.Rank(), scratch, want)
			}
		}
	})
}

// TestTypedCollectivesDataRace drives all typed collectives concurrently on
// interleaved sub-communicators under the race detector, mirroring
// TestStressInterleavedSubcommunicators for the new entry points (Into
// variants, AllGather, AllReduce, AllToAllvConcat).
func TestTypedCollectivesDataRace(t *testing.T) {
	const p = 16
	const rounds = 25
	run := func() []int64 {
		sums := make([]int64, p)
		Run(p, nil, func(c *Comm) {
			q := 4
			row := c.Split(c.Rank()/q, c.Rank()%q)
			col := c.Split(c.Rank()%q, c.Rank()/q)
			rng := rand.New(rand.NewSource(int64(c.Rank() + 99)))
			var gatherBuf, concatBuf []int64
			var counts []int
			var acc int64
			for r := 0; r < rounds; r++ {
				gatherBuf = AllGathervConcatInto(row, []int64{int64(c.Rank()*1000 + r)}, gatherBuf)
				for _, v := range gatherBuf {
					acc += v
				}
				send := make([][]int64, q)
				for d := 0; d < q; d++ {
					for k := 0; k <= (c.Rank()+d+r)%3; k++ {
						send[d] = append(send[d], int64(d+r))
					}
				}
				concatBuf, counts = AllToAllvConcat(col, send, concatBuf, counts)
				for _, v := range concatBuf {
					acc += v
				}
				acc += int64(counts[c.Rank()/q])
				acc += int64(AllGather(row, c.Rank())[r%q])
				acc += int64(AllReduce(col, r, func(a, b int) int { return a + b }))
				if r%5 == 0 {
					_, tot := ExScan(c, int64(r))
					acc += tot
				}
				c.Stats().AddWork(int64(rng.Intn(50)))
				sums[c.Rank()] = acc
			}
		})
		return sums
	}
	s1, s2 := run(), run()
	for r := range s1 {
		if s1[r] != s2[r] {
			t.Fatalf("rank %d data differs across runs: %d vs %d", r, s1[r], s2[r])
		}
	}
}

// TestCollectivesDoNotAliasExchange verifies the Into variants copy out of
// the exchange: mutating a sender's buffer after the collective must not be
// visible in any receiver's result.
func TestCollectivesDoNotAliasExchange(t *testing.T) {
	Run(3, nil, func(c *Comm) {
		local := []int{c.Rank() + 1}
		got := AllGathervConcatInto(c, local, nil)
		send := [][]int{{c.Rank() + 1}, {c.Rank() + 1}, {c.Rank() + 1}}
		halo, _ := NeighborAllToAllvConcat(c, send, nil, nil)
		local[0] = -777
		for _, b := range send {
			b[0] = -777
		}
		c.Barrier()
		for r, v := range got {
			if v != r+1 {
				t.Errorf("rank %d saw mutated value %d from %d", c.Rank(), v, r)
			}
		}
		for r, v := range halo {
			if v != r+1 {
				t.Errorf("rank %d saw mutated halo value %d from %d", c.Rank(), v, r)
			}
		}
	})
}
