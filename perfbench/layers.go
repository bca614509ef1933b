package main

// The traced run's layer measurements. Each calls one module's public
// functions from here, with a span around the call: the query path
// through xpath and plan, the index reads of core, the log writes of
// storage, and the apply path of core through an in-memory twin that
// replays the leader's committed changes.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	xmlvi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/xpath"
)

const (
	probeRounds  = 4     // passes over the distinct queries in the layer probes
	slopeApplies = 30    // commits timed at each document size for the growth slope
	probeRate    = 100.0 // served probe of lookup and commit: offered requests per second
	probeLength  = 2 * time.Second
)

func (r *runner) layers() error {
	probe, err := core.Load(r.initialPath)
	if err != nil {
		return err
	}
	r.probe = probe
	r.queryProbes()
	r.indexProbes()
	r.probe = nil
	if err := r.walReplay(); err != nil {
		return err
	}
	twin, err := r.twinReplay()
	if err != nil {
		return err
	}
	if err := r.growthSlope(twin); err != nil {
		return err
	}
	if r.w.name == "serve" {
		return nil
	}
	// lookup and commit drive no HTTP traffic of their own; a short
	// served probe against the twin, then a saturation probe, measure
	// the server on their document.
	srv := server.New(server.Config{})
	if err := srv.AddDocument("doc", twin); err != nil {
		return err
	}
	if _, err := r.serveLoad(srv, twin, schedule(r.in, probeRate, probeLength)); err != nil {
		return err
	}
	if err := r.saturate(srv, probeRate); err != nil {
		return err
	}
	return srv.Close()
}

// mirrorQuery makes the calls Document.Query makes — parse, pin, plan,
// execute — each in its own span under root.
func mirrorQuery(tr *tracer, root open, ix *core.Indexes, expr string) ([]core.Posting, *plan.Plan, error) {
	sp := tr.child(root, "xpath.parse")
	p, err := xpath.Parse(expr)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	snap := ix.Snapshot()
	sp = tr.child(root, "plan.prepare")
	pl, err := plan.Prepare(snap, p, plan.Auto)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.child(root, "plan.execute")
	ps := pl.Execute()
	tr.end(sp)
	return ps, pl, nil
}

// queryProbes runs every distinct query through mirrorQuery on the
// initial state, alternately traced and untraced, for the xpath and plan
// metrics, the per-class latencies, and the cost of tracing itself.
func (r *runner) queryProbes() {
	var plain, traced []float64
	var examined, results, indexed, planned float64
	scanRows := float64(r.probe.Doc().NumNodes() + r.probe.Doc().NumAttrs())
	for round := 0; round < probeRounds; round++ {
		for qi, q := range r.in.queries {
			for pass := 0; pass < 2; pass++ {
				var tr *tracer
				var root open
				if (round+pass)%2 == 1 {
					tr = r.tr
					root = tr.begin("query." + q.class)
				}
				start := time.Now()
				ps, pl, err := mirrorQuery(tr, root, r.probe, q.text)
				d := us(time.Since(start))
				if tr == nil {
					plain = append(plain, d)
					continue
				}
				tr.end(root)
				traced = append(traced, d)
				want, known := r.expect[qi]
				r.check(err == nil && (!known || len(ps) == len(want)), "probe %s: %d hits, want %d (%v)", q.text, len(ps), len(want), err)
				if err != nil || round > 1 {
					continue
				}
				planned++
				results += float64(len(ps))
				if pl.UsesIndex() {
					indexed++
					examined += float64(driverRows(pl.Root))
				} else {
					examined += scanRows
				}
			}
		}
	}
	r.metrics["trace.overhead_frac"] = median(traced)/median(plain) - 1
	r.metrics["plan.index_frac"] = indexed / planned
	r.metrics["plan.rows_examined_per_result"] = examined / max(results, 1)
}

// driverRows is the actual row count of the plan's driving access path.
func driverRows(n *plan.Node) int {
	if strings.HasSuffix(n.Detail, "[driver]") {
		return n.ActRows
	}
	for _, c := range n.Children {
		if rows := driverRows(c); rows >= 0 {
			return rows
		}
	}
	return -1
}

// indexProbes calls the index lookups directly with the queries'
// literals, isolating B+tree leaf decode and posting intersection from
// navigation and verification.
func (r *runner) indexProbes() {
	snap := r.probe.Snapshot()
	for round := 0; round < probeRounds; round++ {
		for _, q := range r.in.queries {
			switch q.class {
			case "eq":
				sp := r.tr.begin("core.lookup_string")
				snap.LookupString(q.lits[0])
				r.tr.end(sp)
			case "range":
				lo, err1 := strconv.ParseFloat(q.lits[0], 64)
				hi, err2 := strconv.ParseFloat(q.lits[1], 64)
				if err1 != nil || err2 != nil {
					continue
				}
				sp := r.tr.begin("core.range_double")
				snap.RangeDouble(lo, hi, true, true)
				r.tr.end(sp)
			case "contains":
				sp := r.tr.begin("core.contains")
				snap.Contains(q.lits[0])
				r.tr.end(sp)
			}
		}
	}
}

// walReplay appends every captured commit payload to a scratch log,
// syncing after each record as the leader does.
func (r *runner) walReplay() error {
	w, err := storage.CreateWAL(filepath.Join(r.dir, "replay.wal"), math.MaxInt)
	if err != nil {
		return err
	}
	header := w.Size()
	for _, c := range r.changes {
		sp := r.tr.begin("storage.wal_append")
		err := w.Append(recordKind[c.Kind], c.Payload)
		r.tr.end(sp)
		if err == nil {
			sp = r.tr.begin("storage.fsync")
			err = w.Sync()
			r.tr.end(sp)
		}
		if err != nil {
			w.Close()
			return fmt.Errorf("replaying into a scratch log: %w", err)
		}
	}
	r.metrics["storage.wal_bytes_per_commit"] = float64(w.Size()-header) / float64(max(len(r.changes), 1))
	return w.Close()
}

// twinReplay applies the captured change stream to an in-memory twin of
// the initial state — clone, apply and publish without the log, which is
// also a follower's apply cost — and checks that the twin ends
// byte-identical to the leader.
func (r *runner) twinReplay() (*xmlvi.Document, error) {
	twin, err := xmlvi.Load(r.initialPath)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range r.changes {
		sp := r.tr.begin("core.apply")
		err := twin.ApplyChange(c)
		r.tr.end(sp)
		r.check(err == nil, "twin apply of version %d: %v", c.Version, err)
	}
	runtime.ReadMemStats(&after)
	r.metrics["core.commit_alloc_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(max(len(r.changes), 1))

	a, b := filepath.Join(r.dir, "leader.pin"), filepath.Join(r.dir, "twin.pin")
	if err := r.leader.Pin().Save(a); err != nil {
		return nil, err
	}
	if err := twin.Pin().Save(b); err != nil {
		return nil, err
	}
	la, err1 := os.ReadFile(a)
	tb, err2 := os.ReadFile(b)
	r.check(err1 == nil && err2 == nil && bytes.Equal(la, tb), "twin at version %d differs from the leader at %d", twin.Version(), r.leader.Version())
	return twin, nil
}

// growthSlope times the same commit — one batch of person-name updates
// through UpdateTexts — on the serve-sized and the lookup-sized document,
// and reports the log-log slope of apply time against node count.
func (r *runner) growthSlope(twin *xmlvi.Document) error {
	scale := largeScale
	if r.w.scale >= largeScale {
		scale = smallScale
	}
	other, err := xmlvi.Parse(datagen.XMark(scale, r.seed))
	if err != nil {
		return err
	}
	other.EnableSubstringIndex()
	t1, n1 := r.applyTime(twin), float64(twin.NumNodes())
	t2, n2 := r.applyTime(other), float64(other.NumNodes())
	r.metrics["core.apply_growth_slope"] = math.Log(t2/t1) / math.Log(n2/n1)
	return nil
}

// applyTime is the median time of slopeApplies batch commits on d.
func (r *runner) applyTime(d *xmlvi.Document) float64 {
	_, texts := personNames(d)
	w := newWriter(r.seed, "slope", 0, 1, len(texts))
	var ts []float64
	for i := 0; i < slopeApplies; i++ {
		wr := w.texts(batchSize)
		ups := make([]xmlvi.TextUpdate, len(wr.persons))
		for j, p := range wr.persons {
			ups[j] = xmlvi.TextUpdate{Node: texts[p], Value: wr.values[j]}
		}
		start := time.Now()
		err := d.UpdateTexts(ups)
		ts = append(ts, us(time.Since(start)))
		r.check(err == nil, "slope commit: %v", err)
	}
	return median(ts)
}

// spanMetrics turns the recorded spans into the per-layer metrics.
func (r *runner) spanMetrics() {
	spans := r.tr.snapshot()
	self, dur := selfTimes(spans), durations(spans)
	ms := func(name string) float64 { return median(dur[name]) / 1e3 }
	for metric, name := range map[string]string{
		"xmlparse.parse_ms":    "xmlparse.parse",
		"core.build_ms":        "core.build",
		"core.substr_build_ms": "core.substr_build",
		"core.save_ms":         "core.save",
		"core.checkpoint_ms":   "core.checkpoint",
		"core.load_ms":         "core.load",
		"core.replay_ms":       "core.replay",
	} {
		r.metrics[metric] = ms(name)
	}
	for metric, name := range map[string]string{
		"xpath.parse_us":          "xpath.parse",
		"plan.prepare_us":         "plan.prepare",
		"plan.execute_us":         "plan.execute",
		"core.lookup_string_us":   "core.lookup_string",
		"core.range_double_us":    "core.range_double",
		"core.contains_us":        "core.contains",
		"txn.commit_us":           "txn.commit",
		"core.apply_us":           "core.apply",
		"storage.wal_append_us":   "storage.wal_append",
		"storage.fsync_us":        "storage.fsync",
		"server.query_handler_us": "server.query_handler",
		"server.patch_handler_us": "server.patch_handler",
	} {
		r.metrics[metric] = median(dur[name])
	}
	for _, class := range queryClasses {
		r.metrics["query."+class+"_p50_us"] = median(dur["query."+class])
	}
	// The round trip minus the handler: time on the wire and in HTTP code.
	r.metrics["server.wire_us"] = median(self["serve.query"])
}
