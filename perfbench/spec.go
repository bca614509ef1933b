package main

// The benchmark's declared workloads and metrics. BENCHMARK.json at the
// repository root lists the same names, units and bounds (a test keeps
// the two in step); the per-layer table below additionally records each
// metric's module and the end-to-end metric and workload it should move.

import "fmt"

const (
	largeScale = 7.0  // xmark1 at ~504k nodes, ~6.8 MB of XML, ~63 MB packed
	smallScale = 0.05 // xmark1 at ~3.6k nodes, ~460 KB packed: fits one core's L2
)

type workload struct {
	name    string
	why     string
	loop    string // "closed" or "open"
	clients int    // concurrent clients (open loop: connections)
	scale   float64
	// Offered requests per second, open loop only: about a quarter of
	// the rate at which the handler saturates (server.saturation_per_s),
	// so queueing shows in the tail but a host running at half speed
	// still keeps up.
	rate float64

	// A small document sets up and recovers in milliseconds, so its runs
	// repeat set-up and recovery more often (reporting the median set-up
	// and the lower-quartile recovery, see lowerQuartile) and
	// replay a longer log tail, which averages over the heap compactions
	// the replay happens to trigger.
	setupReps, recoverReps, tail int

	// The timed phase is split evenly over the documents of the last
	// instances set-ups. On a shared 2-core x86-64 VM one build of the
	// large document answered queries up to 25% faster or slower than
	// another build of the same bytes in the same process, steadily for
	// as long as it lived (where its pages landed in memory), so a run
	// that timed a single build would report that build's luck.
	instances int
}

var workloads = []workload{
	{
		name:    "lookup",
		why:     "closed loop, 2 clients: Document.Query over 6 classes on xmark1 ~504k nodes/6.8 MB XML, far beyond L2; time in xpath, plan, btree, postings, substring",
		loop:    "closed",
		clients: 2,
		scale:   largeScale,

		setupReps: 5, recoverReps: 3, tail: 100, instances: 5,
	},
	{
		name:    "commit",
		why:     "closed loop, 2 clients: durable Txn commits + read-own-write queries on ~504k nodes/6.8 MB XML; time in COW clone, Fig 8 refold, WAL fsync, checkpoints",
		loop:    "closed",
		clients: 2,
		scale:   largeScale,

		setupReps: 3, recoverReps: 3, tail: 100, instances: 3,
	},
	{
		name:    "serve",
		why:     "open loop, Poisson 2000 req/s (~25% of the ~8k req/s saturation), 90% query/10% patch, 2 keep-alive conns to the HTTP handler; durable ~3.6k nodes/48 KB XML, fits L2; time in HTTP, server",
		loop:    "open",
		clients: 2,
		scale:   smallScale,
		rate:    2000,

		setupReps: 61, recoverReps: 21, tail: 400, instances: 1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end: allowed worsening as a share of the parent's median

	// Per-layer mapping: the module the metric measures, the end-to-end
	// metric it should move, and the workloads it moves it on.
	module string
	moves  string
	on     string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. Where a workload's own operations do not exercise a
// metric, it comes from the fixed after-phase every run has: the
// recovery tail's commits give lookup its commit latencies, and serve's
// achieved request rates are its throughputs.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "query_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "commit_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "commit_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "commits_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25},
	{name: "mem_bytes_per_node", unit: "B/node", better: "lower", bound: 0.10},
	{name: "disk_bytes_per_input_byte", unit: "B/B", better: "lower", bound: 0.10},
}

const all = "lookup,commit,serve"

// perLayer are the traced run's metrics, one or more per module.
var perLayer = []metric{
	{name: "xmlparse.parse_ms", unit: "ms", better: "lower", module: "xmlparse", moves: "setup_s", on: all},
	{name: "core.build_ms", unit: "ms", better: "lower", module: "core", moves: "setup_s", on: all},
	{name: "core.substr_build_ms", unit: "ms", better: "lower", module: "core", moves: "setup_s", on: all},
	{name: "core.save_ms", unit: "ms", better: "lower", module: "core", moves: "setup_s", on: all},

	{name: "storage.snapshot_bytes", unit: "B", better: "lower", module: "storage", moves: "disk_bytes_per_input_byte", on: "commit"},
	{name: "storage.wal_append_us", unit: "us", better: "lower", module: "storage", moves: "commit_p50_us", on: "commit,serve"},
	{name: "storage.fsync_us", unit: "us", better: "lower", module: "storage", moves: "commit_p50_us", on: "commit,serve"},
	{name: "storage.wal_bytes_per_commit", unit: "B", better: "lower", module: "storage", moves: "commit_p50_us", on: "commit,serve"},

	{name: "xpath.parse_us", unit: "us", better: "lower", module: "xpath", moves: "query_p50_us", on: "lookup,serve"},

	{name: "plan.prepare_us", unit: "us", better: "lower", module: "plan", moves: "query_p50_us,query_p90_us", on: "lookup,commit"},
	{name: "plan.execute_us", unit: "us", better: "lower", module: "plan", moves: "query_p50_us,query_p90_us", on: "lookup,commit"},
	{name: "plan.rows_examined_per_result", unit: "rows", better: "lower", module: "plan", moves: "query_p90_us", on: "lookup"},
	{name: "plan.index_frac", unit: "frac", better: "higher", module: "plan", moves: "query_p50_us", on: "lookup"},

	{name: "query.eq_p50_us", unit: "us", better: "lower", module: "query", moves: "query_p50_us", on: "lookup"},
	{name: "query.range_p50_us", unit: "us", better: "lower", module: "query", moves: "query_p50_us", on: "lookup"},
	{name: "query.range_wide_p50_us", unit: "us", better: "lower", module: "query", moves: "query_p50_us", on: "lookup"},
	{name: "query.date_p50_us", unit: "us", better: "lower", module: "query", moves: "query_p50_us", on: "lookup"},
	{name: "query.contains_p50_us", unit: "us", better: "lower", module: "query", moves: "query_p50_us", on: "lookup"},
	{name: "query.conj_p50_us", unit: "us", better: "lower", module: "query", moves: "query_p50_us", on: "lookup"},

	{name: "core.lookup_string_us", unit: "us", better: "lower", module: "core", moves: "query_p50_us", on: "lookup"},
	{name: "core.range_double_us", unit: "us", better: "lower", module: "core", moves: "query_p50_us", on: "lookup"},
	{name: "core.contains_us", unit: "us", better: "lower", module: "core", moves: "query_p50_us", on: "lookup"},

	{name: "txn.commit_us", unit: "us", better: "lower", module: "txn", moves: "commit_p50_us,commit_p90_us", on: "commit"},

	{name: "core.apply_us", unit: "us", better: "lower", module: "core", moves: "commit_p50_us,commits_per_s", on: "commit"},
	{name: "core.commit_alloc_bytes", unit: "B", better: "lower", module: "core", moves: "commit_p50_us,commits_per_s", on: "commit"},
	{name: "core.apply_growth_slope", unit: "slope", better: "lower", module: "core", moves: "commit_p50_us", on: "commit"},
	{name: "core.checkpoint_ms", unit: "ms", better: "lower", module: "core", moves: "commit_p90_us", on: "commit"},
	{name: "core.checkpoint_bytes", unit: "B", better: "lower", module: "core", moves: "commit_p90_us", on: "commit"},
	{name: "core.load_ms", unit: "ms", better: "lower", module: "core", moves: "recover_s", on: "commit"},
	{name: "core.replay_ms", unit: "ms", better: "lower", module: "core", moves: "recover_s", on: "commit"},

	{name: "server.query_handler_us", unit: "us", better: "lower", module: "server", moves: "query_p50_us", on: "serve"},
	{name: "server.patch_handler_us", unit: "us", better: "lower", module: "server", moves: "commit_p50_us", on: "serve"},
	{name: "server.wire_us", unit: "us", better: "lower", module: "server", moves: "query_p50_us", on: "serve"},
	{name: "server.resp_bytes_per_query", unit: "B", better: "lower", module: "server", moves: "query_p50_us", on: "serve"},
	{name: "server.saturation_per_s", unit: "1/s", better: "higher", module: "server", moves: "query_p90_us,commit_p90_us", on: "serve"},

	{name: "gen.late_p90_us", unit: "us", better: "lower", module: "gen", moves: "query_p90_us", on: "serve"},
	{name: "gen.achieved_rate_frac", unit: "frac", better: "higher", module: "gen", moves: "queries_per_s", on: "serve"},

	{name: "runtime.gc_cycles_per_kop", unit: "count", better: "lower", module: "runtime", moves: "query_p90_us,commit_p90_us", on: all},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower", module: "runtime", moves: "query_p90_us,commit_p90_us", on: all},

	{name: "diag.query_p99_us", unit: "us", better: "lower", module: "diag", moves: "query_p90_us", on: all},
	{name: "diag.commit_p99_us", unit: "us", better: "lower", module: "diag", moves: "commit_p90_us", on: all},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", module: "trace", moves: "query_p50_us,commit_p50_us", on: all},
}
