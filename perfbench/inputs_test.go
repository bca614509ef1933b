package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// fingerprint serialises the generated inputs — the document, queries,
// query order, the first n writes of each stream, and the first n
// arrivals of a schedule — for the determinism tests.
func (in *inputs) fingerprint(n int) []byte {
	var b bytes.Buffer
	b.Write(in.xml)
	for _, q := range in.queries {
		fmt.Fprintf(&b, "\n%s|%s|%q", q.class, q.text, q.lits)
	}
	fmt.Fprintf(&b, "\n%v", in.seq)
	for c := 0; c < 2; c++ {
		w := newWriter(in.seed, "commit", c, 2, in.persons)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "\n%+v", w.next())
		}
	}
	for i, a := range schedule(in, 1000, time.Second) {
		if i == n {
			break
		}
		fmt.Fprintf(&b, "\n%+v", a)
	}
	return b.Bytes()
}

func TestInputsDeterministic(t *testing.T) {
	w := workload{name: "t", scale: smallScale}
	gen := func(seed int64) []byte {
		in, err := genInputs(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in.fingerprint(64)
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same inputs")
	}
}

func TestInputsShape(t *testing.T) {
	in, err := genInputs(workload{name: "t", scale: smallScale}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(queryClasses) * literalsPerClass; len(in.queries) != want {
		t.Fatalf("%d queries, want %d", len(in.queries), want)
	}
	// Two clients' writes never touch the same person, and every value
	// written is distinct.
	owner := map[int]int{}
	values := map[string]bool{}
	for c := 0; c < 2; c++ {
		wr := newWriter(in.seed, "commit", c, 2, in.persons)
		for i := 0; i < 200; i++ {
			op := wr.next()
			for j, p := range op.persons {
				if o, ok := owner[p]; ok && o != c || p%2 != c || p >= in.persons {
					t.Fatalf("client %d writes person %d", c, p)
				}
				owner[p] = c
				if values[op.values[j]] {
					t.Fatalf("value %q written twice", op.values[j])
				}
				values[op.values[j]] = true
			}
		}
	}
	arr := schedule(in, 500, 2*time.Second)
	if len(arr) != 1000 {
		t.Fatalf("%d arrivals, want 1000", len(arr))
	}
	patches := 0
	for i, a := range arr {
		if i > 0 && a.due < arr[i-1].due || a.due >= 2*time.Second {
			t.Fatalf("arrival %d due at %v", i, a.due)
		}
		if a.query < 0 {
			patches++
		}
	}
	if patches != len(arr)/patchEvery {
		t.Fatalf("%d patches in %d arrivals", patches, len(arr))
	}
}
