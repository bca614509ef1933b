package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// lookupPhase runs one segment of the read-only closed loop, of the
// given length, starting offset into the timed phase: each client goes
// on through the seeded query order from where it stopped in the last
// segment, issuing queries back to back, and checks every answer
// against the scan oracle's answer from setup.
func (r *runner) lookupPhase(offset, length time.Duration) int64 {
	seq := r.in.seq
	if r.best == nil {
		r.best = make([]float64, len(r.in.queries))
		for i := range r.best {
			r.best[i] = math.Inf(1)
		}
		for c := 0; c < r.w.clients; c++ {
			r.pos = append(r.pos, c*len(seq)/r.w.clients)
		}
	}
	var n atomic.Int64
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			best := make(map[int]float64)
			i := r.pos[c]
			for ; time.Now().Before(deadline); i++ {
				qi := seq[i%len(seq)]
				q := r.in.queries[qi]
				sp := r.tr.begin("query")
				t0 := time.Now()
				got, err := r.leader.Query(q.text)
				lat := us(time.Since(t0))
				r.queryLat.add(offset+time.Since(start), lat)
				r.tr.end(sp)
				n.Add(1)
				if b, ok := best[qi]; !ok || lat < b {
					best[qi] = lat
				}
				r.check(err == nil && slices.Equal(keys(got), r.expect[qi]),
					"%s: %d hits, want %d (%v)", q.text, len(got), len(r.expect[qi]), err)
			}
			r.bestMu.Lock()
			r.pos[c] = i
			for qi, b := range best {
				r.best[qi] = min(r.best[qi], b)
			}
			r.bestMu.Unlock()
		}(c)
	}
	wg.Wait()
	return n.Load()
}

// commitPhase runs one segment of the durable write loop, like
// lookupPhase: each client alternates a commit over its own persons with
// a query reading that write back. Of every mixEvery writes one is an
// attribute update and one an insert/delete pair at the end of document
// order; a checkpoint runs after every checkpointEvery commits.
func (r *runner) commitPhase(offset, length time.Duration) int64 {
	var commits, reads atomic.Int64
	var structMu sync.Mutex // insert/delete pairs must not interleave: each deletes the node it inserted
	site := r.leader.Find("site")
	start := time.Now()
	deadline := start.Add(length)

	var ckMu sync.Mutex // guards checkpointBytes
	committed := func(lat time.Duration) {
		r.commitLat.add(offset+time.Since(start), us(lat))
		if commits.Add(1)%checkpointEvery != 0 {
			return
		}
		sp := r.tr.begin("core.checkpoint")
		err := r.leader.Checkpoint()
		r.tr.end(sp)
		r.check(err == nil, "checkpoint: %v", err)
		if st, err := os.Stat(r.snapPath); err == nil {
			ckMu.Lock()
			r.checkpointBytes = append(r.checkpointBytes, float64(st.Size()))
			ckMu.Unlock()
		}
	}
	query := func(parent open, q string, want []int) {
		sp := r.tr.child(parent, "query")
		t0 := time.Now()
		got, err := r.leader.Query(q)
		r.queryLat.add(offset+time.Since(start), us(time.Since(t0)))
		r.tr.end(sp)
		reads.Add(1)
		ok := err == nil && len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = int(got[i].Node) == want[i]
		}
		r.check(ok, "read-own-write %s: %d hits, want %v (%v)", q, len(got), want, err)
	}

	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			wr := newWriter(r.seed, "commit", c, r.w.clients, r.in.persons)
			for k := 0; time.Now().Before(deadline); k++ {
				op := wr.next()
				p := op.persons[0]
				root := r.tr.begin("commit")
				switch op.kind {
				case writeTexts:
					t0 := time.Now()
					err := r.commitTexts(root, op)
					lat := time.Since(t0)
					r.check(err == nil, "commit: %v", err)
					committed(lat)
					j := k % len(op.persons)
					query(root, fmt.Sprintf(`//person[name = "%s"]`, op.values[j]), []int{int(r.persons[op.persons[j]])})
				case writeAttr:
					a := r.leader.FindAttr(r.persons[p], "id")
					t0 := time.Now()
					err := r.leader.UpdateAttr(a, op.values[0])
					lat := time.Since(t0)
					r.check(err == nil, "attribute update: %v", err)
					committed(lat)
					query(root, fmt.Sprintf(`//person[@id = "%s"]`, op.values[0]), []int{int(r.persons[p])})
				case writeInsertDelete:
					q := fmt.Sprintf(`//benchnote[name = "%s"]`, op.values[0])
					structMu.Lock()
					t0 := time.Now()
					n, err := r.leader.InsertXML(site, len(r.leader.Children(site)), "<benchnote><name>"+op.values[0]+"</name></benchnote>")
					lat := time.Since(t0)
					r.check(err == nil, "insert: %v", err)
					committed(lat)
					query(root, q, []int{int(n)})
					t0 = time.Now()
					err = r.leader.Delete(n)
					lat = time.Since(t0)
					r.check(err == nil, "delete: %v", err)
					committed(lat)
					query(root, q, nil)
					structMu.Unlock()
				}
				r.tr.end(root)
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("commit segment: %d commits, %d reads\n", commits.Load(), reads.Load())
	return commits.Load() + reads.Load()
}
