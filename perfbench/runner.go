package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	xmlvi "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/xmlparse"
)

const checkpointEvery = 100 // commit workload: checkpoint after every this many commits

// runner carries one run: its inputs, the leader document, and what the
// phases measured.
type runner struct {
	w       workload
	seed    int64
	seconds time.Duration
	dir     string
	tr      *tracer // nil in the untraced run

	in                *inputs
	snapPath, walPath string
	leader            *xmlvi.Document
	srv               *server.Server // serve: the server that owns the leader
	initialPath       string         // traced: a copy of the initial snapshot
	probe             *core.Indexes  // traced: the initial state, loaded for the layer probes
	persons           []xmlvi.Node   // person elements in document order
	nameTexts         []xmlvi.Node   // the text node of each person's name
	expect            map[int][]key  // scan-oracle answers at setup, by query index

	queryLat, commitLat samples
	checkpointBytes     []float64

	// lookup: each client's position in the query order, kept across
	// segments, and each distinct query's fastest latency in µs.
	bestMu sync.Mutex
	pos    []int
	best   []float64

	capMu   sync.Mutex
	changes []xmlvi.Change // every commit since setup, in version order

	attempted, failed atomic.Int64
	reported          atomic.Int64
	metrics           map[string]float64
}

// key identifies one query hit: a node, or an attribute of one.
type key struct {
	node   xmlvi.Node
	attr   xmlvi.Attr
	isAttr bool
}

func hit(n xmlvi.Node, a xmlvi.Attr, isAttr bool) key {
	if !isAttr {
		a = -1
	}
	return key{n, a, isAttr}
}

func keys(rs []xmlvi.Result) []key {
	out := make([]key, len(rs))
	for i, r := range rs {
		out[i] = hit(r.Node, r.Attr, r.IsAttr)
	}
	return out
}

// check counts one checked operation and records a failure when ok is
// false.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if ok {
		return
	}
	r.failed.Add(1)
	if r.reported.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: "+format+"\n", args...)
	}
}

func (r *runner) run() error {
	in, err := genInputs(r.w, r.seed)
	if err != nil {
		return err
	}
	r.in = in
	r.metrics = make(map[string]float64)
	fmt.Printf("workload %s, seed %d: %s loop, %d clients, xmark1 scale %g, %d XML bytes\n",
		r.w.name, r.seed, r.w.loop, r.w.clients, r.w.scale, len(in.xml))

	// Set up setupReps times; the timed phase runs in equal segments on
	// the documents of the last instances set-ups, and the last of them
	// goes on to the after-phase.
	reps, k := r.w.setupReps, r.w.instances
	seg := r.seconds / time.Duration(k)
	var times []float64
	var gcs, alloc uint64
	var ops int64
	for i := 0; i < reps; i++ {
		t, err := r.setup(i)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, t)
		if i < reps-k {
			if err := r.discard(); err != nil {
				return err
			}
			continue
		}
		if err := r.resolve(); err != nil {
			return err
		}
		if i == reps-k {
			fmt.Printf("document: %d nodes\n", r.leader.NumNodes())
			r.precheck()
		}
		if r.tr != nil {
			// Only a copy of the initial state stays behind for the
			// layer probes: a second document alive through the timed
			// phase would change how often the collector runs.
			r.initialPath = filepath.Join(r.dir, "initial.xvi")
			if err := copyFile(r.snapPath, r.initialPath); err != nil {
				return err
			}
		}
		r.changes = nil // the twin replays the last document's commits
		if r.w.name != "serve" {
			r.leader.OnCommit(r.capture)
		}

		runtime.GC() // start the timed phase without the set-up's garbage
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		traceBytes := r.tr.allocated()
		offset := seg * time.Duration(i-(reps-k))
		var n int64
		switch r.w.name {
		case "lookup":
			n = r.lookupPhase(offset, seg)
		case "commit":
			n = r.commitPhase(offset, seg)
		case "serve":
			n, err = r.servePhase()
		}
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		ops += n
		gcs += uint64(after.NumGC - before.NumGC)
		// The span buffer's growth is the tracer's, not the program's.
		alloc += after.TotalAlloc - before.TotalAlloc - (r.tr.allocated() - traceBytes)
		if i < reps-1 {
			if err := r.discard(); err != nil {
				return err
			}
		}
	}
	r.metrics["setup_s"] = median(times)
	switch r.w.name {
	case "lookup":
		r.lookupMetrics(seg * time.Duration(k))
	case "commit":
		r.queryMetrics(r.queryLat.values(), seg*time.Duration(k))
		r.commitMetrics(r.commitLat.values(), seg*time.Duration(k))
	}
	r.metrics["runtime.gc_cycles_per_kop"] = float64(gcs) * 1000 / float64(max(ops, 1))
	r.metrics["runtime.alloc_bytes_per_op"] = float64(alloc) / float64(max(ops, 1))
	if r.tr != nil && r.srv != nil {
		// The saturation probe's patches go into the leader's log
		// before finish captures it, so the twin replays them too.
		if err := r.saturate(r.srv, r.w.rate); err != nil {
			return err
		}
	}
	if err := r.finish(); err != nil {
		return err
	}
	if r.tr != nil {
		r.spanMetrics()
	}
	return nil
}

// setup turns the XML into a durable, indexed document — parse, build,
// substring index, first Save — opens it as the leader, and returns the
// seconds that took. The untraced run goes through xmlvi; the traced
// run makes the same calls module by module, then opens the leader from
// the files it wrote, untimed.
func (r *runner) setup(i int) (float64, error) {
	r.snapPath = filepath.Join(r.dir, fmt.Sprintf("doc%d.xvi", i))
	r.walPath = filepath.Join(r.dir, fmt.Sprintf("doc%d.wal", i))
	// Hand the last document's pages back, so this one lands afresh.
	debug.FreeOSMemory()
	start := time.Now()
	if r.tr == nil {
		err := r.setupPublic(r.snapPath, r.walPath)
		return time.Since(start).Seconds(), err
	}
	if err := r.setupTraced(r.snapPath, r.walPath); err != nil {
		return 0, err
	}
	t := time.Since(start).Seconds()
	d, err := xmlvi.OpenDurable(r.snapPath, r.walPath)
	if err != nil {
		return 0, fmt.Errorf("opening the leader: %w", err)
	}
	r.leader = d
	return t, nil
}

// discard closes the leader and removes its files.
func (r *runner) discard() error {
	if err := r.leader.Close(); err != nil {
		return err
	}
	r.leader = nil
	os.Remove(r.snapPath)
	os.Remove(r.walPath)
	return nil
}

func (r *runner) setupPublic(snap, wal string) error {
	d, err := xmlvi.ParseWithOptions(r.in.xml, xmlvi.Options{WAL: wal})
	if err != nil {
		return err
	}
	d.EnableSubstringIndex()
	if err := d.Save(snap); err != nil {
		return err
	}
	r.leader = d
	return nil
}

func (r *runner) setupTraced(snap, wal string) error {
	root := r.tr.begin("setup")
	defer r.tr.end(root)
	sp := r.tr.child(root, "xmlparse.parse")
	doc, err := xmlparse.ParseWith(r.in.xml, xmlparse.Options{})
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.child(root, "core.build")
	ix := core.Build(doc, core.DefaultOptions())
	r.tr.end(sp)
	sp = r.tr.child(root, "core.substr_build")
	ix.EnableSubstring()
	r.tr.end(sp)
	sp = r.tr.child(root, "core.save")
	err = ix.StartDurable(snap, wal, 0)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	return ix.CloseWAL()
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// resolve maps person positions to node ids. Writes address persons by
// position; node ids never move because structural writes only touch
// the end of document order.
func (r *runner) resolve() error {
	r.persons, r.nameTexts = personNames(r.leader)
	if len(r.persons) != r.in.persons {
		return fmt.Errorf("resolve: document has %d named persons, inputs saw %d", len(r.persons), r.in.persons)
	}
	return nil
}

// personNames returns each person element and its name's text node.
func personNames(d *xmlvi.Document) (persons, texts []xmlvi.Node) {
	for _, n := range d.FindAll("person") {
		for _, c := range d.Children(n) {
			if d.Name(c) == "name" {
				if t := d.Children(c); len(t) == 1 {
					persons = append(persons, n)
					texts = append(texts, t[0])
				}
				break
			}
		}
	}
	return persons, texts
}

// precheck compares Query against the QueryScan oracle — hits and their
// order — for each distinct query (a seeded sample of four per class on
// the commit workload, whose loop runs its own checks) and keeps the
// oracle's answers.
func (r *runner) precheck() {
	r.expect = make(map[int][]key)
	for i, q := range r.in.queries {
		if r.w.name == "commit" && i%literalsPerClass >= 4 {
			continue
		}
		want, err1 := r.leader.QueryScan(q.text)
		got, err2 := r.leader.Query(q.text)
		r.check(err1 == nil && err2 == nil && slices.Equal(keys(got), keys(want)),
			"precheck %s: index %d hits, scan %d hits (%v, %v)", q.text, len(got), len(want), err2, err1)
		if err1 == nil {
			r.expect[i] = keys(want)
		}
	}
}

func (r *runner) capture(c xmlvi.Change) {
	r.capMu.Lock()
	r.changes = append(r.changes, c)
	r.capMu.Unlock()
}

// commitTexts writes one batch of person names through a transaction.
func (r *runner) commitTexts(parent open, wr write) error {
	tx := r.leader.Begin()
	for j, p := range wr.persons {
		if err := tx.SetText(r.nameTexts[p], wr.values[j]); err != nil {
			tx.Abort()
			return err
		}
	}
	sp := r.tr.child(parent, "txn.commit")
	err := tx.Commit()
	r.tr.end(sp)
	return err
}

// finish runs the fixed after-phase of every workload: a final
// checkpoint, a tail of commits left in the log, and recovery from the
// snapshot plus that tail. The traced run measures the layers in
// between, while the leader is still open.
func (r *runner) finish() error {
	if r.w.name == "serve" {
		if err := r.captureWAL(); err != nil {
			return err
		}
	}
	sp := r.tr.begin("core.checkpoint")
	err := r.leader.Checkpoint()
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	st, err := os.Stat(r.snapPath)
	if err != nil {
		return err
	}
	r.checkpointBytes = append(r.checkpointBytes, float64(st.Size()))
	r.metrics["storage.snapshot_bytes"] = float64(st.Size())
	r.metrics["core.checkpoint_bytes"] = median(r.checkpointBytes)
	r.metrics["disk_bytes_per_input_byte"] = float64(st.Size()) / float64(len(r.in.xml))

	tw := newWriter(r.seed, "tail", 0, 1, r.in.persons)
	var tail samples
	runtime.GC()
	tailStart := time.Now()
	for i := 0; i < r.w.tail; i++ {
		root := r.tr.begin("commit")
		start := time.Now()
		err := r.commitTexts(root, tw.texts(batchSize))
		tail.add(time.Since(tailStart), us(time.Since(start)))
		r.tr.end(root)
		r.check(err == nil, "tail commit: %v", err)
	}
	if r.w.name == "lookup" {
		r.commitMetrics(tail.values(), time.Since(tailStart))
	}
	if r.w.name == "serve" {
		if err := r.captureWAL(); err != nil {
			return err
		}
	}
	r.metrics["mem_bytes_per_node"] = r.leader.MemStats().BytesPerNode

	if r.tr != nil {
		if err := r.layers(); err != nil {
			return err
		}
	}
	lastAck := r.leader.Version()
	if r.srv != nil {
		err = r.srv.Close()
	} else {
		err = r.leader.Close()
	}
	if err != nil {
		return err
	}
	r.leader = nil
	return r.recover(lastAck)
}

// lookupMetrics records the lookup workload's query latency percentiles
// and throughput. The percentiles are taken over the distinct queries,
// each weighted equally as the query order issues them, and the latency
// of one query is the fastest of its executions in the run (some thirty
// in a 15 s run). The large document's queries depend on memory and a
// last-level cache that a shared host's other tenants contend for in
// bursts of tens of milliseconds. The fastest execution of each query
// falls between the bursts, while a change to the program moves it like
// any other. The throughput is the median rate over time windows. The
// p99 diagnostic is taken over all executions, like the other
// workloads' latencies, so that stalls in time (collector pauses, other
// tenants) still show in one figure.
func (r *runner) lookupMetrics(length time.Duration) {
	p99, rate := windowStats(r.queryLat.values(), length, 0.99)
	var best []float64
	for _, b := range r.best {
		if !math.IsInf(b, 1) { // a run too short to reach every query
			best = append(best, b)
		}
	}
	r.metrics["query_p50_us"] = quantile(best, 0.5)
	r.metrics["query_p90_us"] = quantile(best, 0.9)
	r.metrics["diag.query_p99_us"] = p99[0]
	r.metrics["queries_per_s"] = rate
}

// commitMetrics records commit latency percentiles and throughput over
// a phase of the given length.
func (r *runner) commitMetrics(lat []sample, length time.Duration) {
	q, rate := windowStats(lat, length, 0.5, 0.9, 0.99)
	r.metrics["commit_p50_us"], r.metrics["commit_p90_us"], r.metrics["diag.commit_p99_us"] = q[0], q[1], q[2]
	r.metrics["commits_per_s"] = rate
}

// queryMetrics records query latency percentiles and throughput over a
// phase of the given length.
func (r *runner) queryMetrics(lat []sample, length time.Duration) {
	q, rate := windowStats(lat, length, 0.5, 0.9, 0.99)
	r.metrics["query_p50_us"], r.metrics["query_p90_us"], r.metrics["diag.query_p99_us"] = q[0], q[1], q[2]
	r.metrics["queries_per_s"] = rate
}

// captureWAL reads the commits logged since the last checkpoint. The
// serve workload uses it in place of OnCommit, which the server claims.
func (r *runner) captureWAL() error {
	base := r.leader.Version()
	var recs []storage.Record
	err := storage.ReplayWAL(r.walPath, func(rec storage.Record) error {
		if rec.Kind == storage.RecCheckpoint {
			recs = recs[:0]
		} else {
			recs = append(recs, rec)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("reading the log: %w", err)
	}
	base -= uint64(len(recs))
	for i, rec := range recs {
		r.capture(xmlvi.Change{Version: base + 1 + uint64(i), Kind: changeKind[rec.Kind], Payload: rec.Payload})
	}
	return nil
}

var changeKind = map[storage.RecordKind]xmlvi.ChangeKind{
	storage.RecTextBatch:  xmlvi.ChangeTexts,
	storage.RecAttrUpdate: xmlvi.ChangeAttr,
	storage.RecDelete:     xmlvi.ChangeDelete,
	storage.RecInsert:     xmlvi.ChangeInsert,
}

var recordKind = func() map[xmlvi.ChangeKind]storage.RecordKind {
	m := make(map[xmlvi.ChangeKind]storage.RecordKind)
	for r, c := range changeKind {
		m[c] = r
	}
	return m
}()

// recover reopens the final snapshot plus the log tail and checks that
// it is the last acknowledged version and passes Verify. The traced run
// makes OpenDurable's load and replay calls itself.
func (r *runner) recover(lastAck uint64) error {
	if r.tr != nil {
		sp := r.tr.begin("core.load")
		ix, err := core.Load(r.snapPath)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		sp = r.tr.begin("core.replay")
		err = storage.ReplayWAL(r.walPath, ix.ApplyLogRecord)
		r.tr.end(sp)
		r.check(err == nil && ix.Version() == lastAck, "recovered version %d, last acknowledged %d (%v)", ix.Version(), lastAck, err)
		err = ix.Verify()
		r.check(err == nil, "recovered document fails Verify: %v", err)
		return nil
	}
	reps := r.w.recoverReps
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		d, err := xmlvi.OpenDurable(r.snapPath, r.walPath)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		r.check(d.Version() == lastAck, "recovered version %d, last acknowledged %d", d.Version(), lastAck)
		if i == reps-1 {
			err = d.Verify()
			r.check(err == nil, "recovered document fails Verify: %v", err)
		}
		if err := d.Close(); err != nil {
			return err
		}
	}
	r.metrics["recover_s"] = lowerQuartile(times)
	return nil
}
