package main

// Seeded input generation. Everything a run feeds the program — the
// document, the query literals, the update targets and values, and the
// serve workload's arrival times — derives from the seed here. The
// program under test receives only these generated inputs: literals are
// read out of the XML bytes with regular expressions, not through the
// program's parser or indexes.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/datagen"
)

// queryClasses are the lookup classes, in report order.
var queryClasses = []string{"eq", "range", "range_wide", "date", "contains", "conj"}

const (
	literalsPerClass = 64 // distinct queries per class
	missEvery        = 8  // one literal in missEvery is absent from the document
	seqRounds        = 8  // rounds in the query order clients cycle through
	batchSize        = 8  // text updates per commit
	mixEvery         = 16 // of every mixEvery writes, one is an insert/delete pair and one an attribute update
)

type query struct {
	class string
	text  string
	lits  []string // the literals spliced into text, for the direct index probes
}

// inputs are the generated inputs of one run.
type inputs struct {
	seed    int64
	xml     []byte
	persons int     // person elements in the document
	queries []query // distinct queries, literalsPerClass per class
	seq     []int   // query order: seqRounds permutations of the indices into queries
}

// facts are the values present in a document, read from its bytes.
type facts struct {
	names     []string // person/name
	itemWords []string // words of item/name
	conj      [][2]string
	prices    []float64 // open_auction/current
	birthdays []time.Time
}

var (
	rePerson   = regexp.MustCompile(`<person id="person\d+">\s*<name>([^<]+)</name>`)
	reItem     = regexp.MustCompile(`<item id="item\d+">\s*<location>([^<]+)</location>\s*<quantity>(\d+)</quantity>\s*<name>([^<]+)</name>`)
	reCurrent  = regexp.MustCompile(`<current>([0-9.]+)</current>`)
	reBirthday = regexp.MustCompile(`<birthday>(\d{4}-\d\d-\d\d)</birthday>`)
)

// byFrequency sorts values by how often they occur, then by value: a
// stratified draw over the result covers rare and common values alike.
func byFrequency[T any](xs []T, key func(T) string) {
	count := make(map[string]int)
	for _, x := range xs {
		count[key(x)]++
	}
	slices.SortStableFunc(xs, func(a, b T) int {
		ka, kb := key(a), key(b)
		if c := count[ka] - count[kb]; c != 0 {
			return c
		}
		return strings.Compare(ka, kb)
	})
}

func extractFacts(xml []byte) facts {
	var f facts
	for _, m := range rePerson.FindAllSubmatch(xml, -1) {
		f.names = append(f.names, string(m[1]))
	}
	for _, m := range reItem.FindAllSubmatch(xml, -1) {
		f.conj = append(f.conj, [2]string{string(m[2]), string(m[1])})
		for _, w := range bytes.Fields(m[3]) {
			if len(w) >= 3 {
				f.itemWords = append(f.itemWords, string(w))
			}
		}
	}
	for _, m := range reCurrent.FindAllSubmatch(xml, -1) {
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err == nil {
			f.prices = append(f.prices, v)
		}
	}
	for _, m := range reBirthday.FindAllSubmatch(xml, -1) {
		t, err := time.Parse(time.DateOnly, string(m[1]))
		if err == nil {
			f.birthdays = append(f.birthdays, t)
		}
	}
	byFrequency(f.itemWords, func(w string) string { return w })
	byFrequency(f.conj, func(c [2]string) string { return c[1] + "/" + c[0] })
	slices.Sort(f.prices)
	slices.SortFunc(f.birthdays, time.Time.Compare)
	return f
}

// subRand derives an independent random stream for one purpose, so
// adding draws to one stream never shifts another.
func subRand(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// genInputs generates a workload's document and query set from seed.
func genInputs(w workload, seed int64) (*inputs, error) {
	xml := datagen.XMark(w.scale, seed)
	f := extractFacts(xml)
	if len(f.names) == 0 || len(f.itemWords) == 0 || len(f.conj) == 0 || len(f.prices) == 0 || len(f.birthdays) == 0 {
		return nil, fmt.Errorf("inputs: document at scale %g lacks values for every query class", w.scale)
	}
	in := &inputs{seed: seed, xml: xml, persons: len(f.names)}
	maxPrice := f.prices[len(f.prices)-1]
	rng := subRand(seed, "queries")
	// Widths chosen for ~6 hits (range) and ~2% of auctions
	// (range_wide), given prices spread evenly over [0, maxPrice].
	narrow := maxPrice * 6 / float64(len(f.prices))
	wide := maxPrice * 0.02
	for _, class := range queryClasses {
		for i := 0; i < literalsPerClass; i++ {
			miss := i%missEvery == missEvery-1
			q := makeQuery(class, miss, stratified{rng, i, literalsPerClass}, f, maxPrice, narrow, wide)
			q.class = class
			in.queries = append(in.queries, q)
		}
	}
	// Each round issues every distinct query once, so any stretch of a
	// few rounds — one latency window — holds the same query mix, and
	// its quantiles differ from another stretch's only by how fast the
	// host ran.
	order := subRand(seed, "order")
	for i := 0; i < seqRounds; i++ {
		in.seq = append(in.seq, order.Perm(len(in.queries))...)
	}
	return in, nil
}

// stratified draws literal i of n from the i-th of n equal strata of a
// sorted value list, so every seed's literals span the same spread of
// values and the query mix costs about the same whatever the seed.
type stratified struct {
	rng  *rand.Rand
	i, n int
}

func (s stratified) pick(size int) int {
	lo, hi := s.i*size/s.n, (s.i+1)*size/s.n
	if hi <= lo {
		return min(lo, size-1)
	}
	return lo + s.rng.Intn(hi-lo)
}

func makeQuery(class string, miss bool, st stratified, f facts, maxPrice, narrow, wide float64) query {
	pick, rng := st.pick, st.rng
	switch class {
	case "eq":
		name := f.names[pick(len(f.names))]
		if miss {
			name = fmt.Sprintf("Nobody Q-%d", rng.Intn(1e6))
		}
		return query{text: fmt.Sprintf(`//person[name = "%s"]`, name), lits: []string{name}}
	case "range", "range_wide":
		width := narrow
		if class == "range_wide" {
			width = wide
		}
		lo := f.prices[pick(len(f.prices))]
		if miss {
			lo = maxPrice + 1 + float64(rng.Intn(1000))
		}
		a, b := strconv.FormatFloat(lo, 'f', 2, 64), strconv.FormatFloat(lo+width, 'f', 2, 64)
		return query{text: fmt.Sprintf(`//open_auction[current >= %s and current <= %s]`, a, b), lits: []string{a, b}}
	case "date":
		d := f.birthdays[pick(len(f.birthdays))]
		if miss {
			d = time.Date(1900+rng.Intn(50), 1, 1, 0, 0, 0, 0, time.UTC)
		}
		a, b := d.Format(time.DateOnly), d.AddDate(0, 0, 1).Format(time.DateOnly)
		return query{text: fmt.Sprintf(`//person[profile/birthday >= xs:date("%s") and profile/birthday <= xs:date("%s")]`, a, b), lits: []string{a, b}}
	case "contains":
		w := f.itemWords[pick(len(f.itemWords))]
		if miss {
			w = fmt.Sprintf("q-%d", rng.Intn(1e6))
		}
		return query{text: fmt.Sprintf(`//item[contains(name/text(), "%s")]`, w), lits: []string{w}}
	case "conj":
		c := f.conj[pick(len(f.conj))]
		if miss {
			c[0] = strconv.Itoa(11 + rng.Intn(9)) // quantities run 1..10
		}
		return query{text: fmt.Sprintf(`//item[quantity = %s and location = "%s"]`, c[0], c[1]), lits: []string{c[0], c[1]}}
	}
	panic("inputs: unknown query class " + class)
}

type writeKind uint8

const (
	writeTexts writeKind = iota
	writeAttr
	writeInsertDelete
)

// write is one generated mutation: a batch of person-name updates, a
// person/@id update, or an insert/delete pair at the end of document
// order. Persons are positions among the document's person elements.
type write struct {
	kind    writeKind
	persons []int
	values  []string
}

// writer generates one client's writes. Client c of n only touches
// persons whose position is c modulo n, so concurrent clients never
// write the same node.
type writer struct {
	rng             *rand.Rand
	tag             string
	client, clients int
	persons         int
	k               int
}

func newWriter(seed int64, stream string, client, clients, persons int) *writer {
	tag := fmt.Sprintf("%s%d", stream, client)
	return &writer{rng: subRand(seed, "writes/"+tag), tag: tag, client: client, clients: clients, persons: persons}
}

func (w *writer) next() write {
	k := w.k
	w.k++
	kind := writeTexts
	switch k % mixEvery {
	case 0:
		kind = writeInsertDelete
	case mixEvery / 2:
		kind = writeAttr
	}
	n := batchSize
	if kind != writeTexts {
		n = 1
	}
	return w.make(kind, n, k)
}

// texts returns the next batch of n name updates, ignoring the mix.
func (w *writer) texts(n int) write {
	k := w.k
	w.k++
	return w.make(writeTexts, n, k)
}

func (w *writer) make(kind writeKind, n, k int) write {
	own := (w.persons - w.client + w.clients - 1) / w.clients // positions ≡ client (mod clients)
	wr := write{kind: kind}
	seen := make(map[int]bool, n)
	for len(wr.persons) < n && len(seen) < own {
		p := w.client + w.clients*w.rng.Intn(own)
		if !seen[p] {
			seen[p] = true
			wr.persons = append(wr.persons, p)
		}
	}
	for j := range wr.persons {
		wr.values = append(wr.values, fmt.Sprintf("%s %s %s-%d-%d", word(w.rng), word(w.rng), w.tag, k, j))
	}
	return wr
}

// word is a capitalised pseudo-word; its letters never spell the
// digits-and-hyphen tail that makes every written value unique.
func word(rng *rand.Rand) string {
	const cons, vows = "bcdfghklmnprstvz", "aeiou"
	b := []byte{cons[rng.Intn(len(cons))] - 'a' + 'A'}
	for i := 0; i < 2; i++ {
		b = append(b, vows[rng.Intn(len(vows))], cons[rng.Intn(len(cons))])
	}
	return string(b)
}

// arrival is one request of the open-loop serve workload.
type arrival struct {
	due   time.Duration // since the start of the timed phase
	query int           // index into inputs.queries; -1 for a patch
	patch write
}

const patchEvery = 10 // one request in patchEvery is a patch

// schedule draws arrivals for the given duration at rate per second: a
// Poisson process conditioned on its count, rate×d arrival times spread
// uniformly at random, so every seed offers the same load. Every
// patchEvery-th request is a set_text patch of one person name; the
// others are queries in the seeded query order.
func schedule(in *inputs, rate float64, d time.Duration) []arrival {
	rng := subRand(in.seed, "arrivals")
	pw := newWriter(in.seed, "serve", 0, 1, in.persons)
	dues := make([]time.Duration, int(rate*d.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(d)))
	}
	slices.Sort(dues)
	out := make([]arrival, len(dues))
	for i, due := range dues {
		out[i] = arrival{due: due, query: in.seq[i%len(in.seq)]}
		if i%patchEvery == patchEvery-1 {
			out[i] = arrival{due: due, query: -1, patch: pw.texts(1)}
		}
	}
	return out
}
