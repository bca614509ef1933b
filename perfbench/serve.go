package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	xmlvi "repro"
	"repro/internal/server"
)

// servePhase runs the open loop against the server's handler on a
// loopback listener: Poisson arrivals from the seed, latency timed from
// each request's due time.
func (r *runner) servePhase() (int64, error) {
	r.srv = server.New(server.Config{})
	if err := r.srv.AddDocument("doc", r.leader); err != nil {
		return 0, err
	}
	ld, err := r.serveLoad(r.srv, r.leader, schedule(r.in, r.w.rate, r.seconds))
	if err != nil {
		return 0, err
	}
	r.queryMetrics(ld.queryLat, ld.elapsed)
	r.commitMetrics(ld.patchLat, ld.elapsed)
	if f := r.metrics["gen.achieved_rate_frac"]; f < 0.9 {
		return 0, fmt.Errorf("serve: the backlog grew: achieved %.2f of the offered rate", f)
	}
	return int64(len(ld.queryLat) + len(ld.patchLat)), nil
}

// load is what one open-loop run measured.
type load struct {
	queryLat, patchLat []sample      // µs from due time to the end of the response
	elapsed            time.Duration // from start to the last response, at least the schedule's length
}

// endpoint is a server's handler on a loopback listener, with a client
// that keeps at most two connections to it alive.
type endpoint struct {
	client *http.Client
	url    string
	close  func()
}

func (r *runner) listen(srv *server.Server) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: r.timing(srv.Handler())}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &endpoint{
		client: &http.Client{Transport: transport, Timeout: time.Minute},
		url:    "http://" + ln.Addr().String(),
		close: func() {
			transport.CloseIdleConnections()
			hs.Shutdown(context.Background())
			<-served
		},
	}, nil
}

// serveLoad sends the arrivals to srv's handler over at most two keep-alive
// connections. A generator goroutine releases each request at its due
// time; two senders take them in order, so a slow response delays the
// requests behind it and the delay counts in their latency. It ends with
// a sample of served answers compared against the library's.
func (r *runner) serveLoad(srv *server.Server, doc *xmlvi.Document, arr []arrival) (load, error) {
	ep, err := r.listen(srv)
	if err != nil {
		return load{}, err
	}
	defer ep.close()

	// Sized to the schedule, so the generator never waits on the senders.
	jobs := make(chan arrival, len(arr))
	start := time.Now()
	var late samples
	go func() {
		for _, a := range arr {
			due := start.Add(a.due)
			sleepUntil(due)
			now := time.Now()
			late.add(now.Sub(start), us(now.Sub(due)))
			jobs <- a
		}
		close(jobs)
	}()

	var (
		mu       sync.Mutex
		ld       load
		last     time.Time
		respSize []float64
	)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				due := start.Add(a.due)
				size, err := r.send(ep, a, r.tr)
				end := time.Now()
				r.check(err == nil, "served request: %v", err)
				lat := sample{end.Sub(start), us(end.Sub(due))}
				mu.Lock()
				if a.query < 0 {
					ld.patchLat = append(ld.patchLat, lat)
				} else {
					ld.queryLat = append(ld.queryLat, lat)
					respSize = append(respSize, float64(size))
				}
				last = end
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := arr[len(arr)-1].due
	ld.elapsed = max(last.Sub(start), window)
	var lateUs []float64
	for _, l := range late.values() {
		lateUs = append(lateUs, l.us)
	}
	r.metrics["gen.late_p90_us"] = quantile(lateUs, 0.9)
	r.metrics["gen.achieved_rate_frac"] = window.Seconds() / ld.elapsed.Seconds()
	r.metrics["server.resp_bytes_per_query"] = sum(respSize) / float64(max(len(respSize), 1))
	return ld, r.servedSample(ep, doc)
}

const saturationLength = 2 * time.Second

// saturate sends the requests of the open loop's mix — the schedule at
// the given rate, cycled — back to back over both connections for
// saturationLength. The completion rate of that closed loop is the
// server's capacity on this document, which the offered rate is held
// against. Its requests are not traced.
func (r *runner) saturate(srv *server.Server, rate float64) error {
	ep, err := r.listen(srv)
	if err != nil {
		return err
	}
	defer ep.close()
	arr := schedule(r.in, rate, probeLength)
	var next, done atomic.Int64
	start := time.Now()
	deadline := start.Add(saturationLength)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				a := arr[(next.Add(1)-1)%int64(len(arr))]
				_, err := r.send(ep, a, nil)
				r.check(err == nil, "saturating request: %v", err)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	r.metrics["server.saturation_per_s"] = float64(done.Load()) / time.Since(start).Seconds()
	return nil
}

// send makes one request and checks its answer. Queries of every class
// but eq must match the scan oracle's answer from setup exactly; name
// patches can only remove eq hits. It returns the response body's size.
func (r *runner) send(ep *endpoint, a arrival, tr *tracer) (int, error) {
	if a.query < 0 {
		p := a.patch.persons[0]
		node := int32(r.nameTexts[p])
		var resp server.PatchResponse
		n, err := post(ep, "/v1/patch", "serve.patch", tr, server.PatchRequest{
			Ops: []server.PatchOp{{Op: "set_text", Node: &node, Value: a.patch.values[0]}},
		}, &resp)
		if err == nil && resp.Ops != 1 {
			err = fmt.Errorf("patch applied %d ops", resp.Ops)
		}
		return n, err
	}
	q := r.in.queries[a.query]
	var resp server.QueryResponse
	n, err := post(ep, "/v1/query", "serve.query", tr, server.QueryRequest{Query: q.text}, &resp)
	if err != nil {
		return n, err
	}
	if want, ok := r.expect[a.query]; ok {
		if q.class == "eq" && resp.Count > len(want) || q.class != "eq" && resp.Count != len(want) {
			return n, fmt.Errorf("%s: served %d hits, want %d", q.text, resp.Count, len(want))
		}
	}
	return n, nil
}

// post sends one JSON request to the endpoint's path and decodes the
// answer. With a tracer the round trip is a span whose child is the
// handler's span (see timing), so its self time is the time on the wire
// and in HTTP code.
func post(ep *endpoint, path, name string, tr *tracer, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	url := ep.url + path
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	sp := tr.begin(name)
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	}
	resp, err := ep.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, data)
	}
	return len(data), json.Unmarshal(data, out)
}

const spanHeader = "X-Perfbench-Span"

// timing wraps the server's handler in the traced run, recording each
// traced request's handler time as a child of the client's round-trip
// span.
func (r *runner) timing(h http.Handler) http.Handler {
	if r.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		id, err := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		if err != nil {
			return
		}
		name := "server.query_handler"
		if req.URL.Path == "/v1/patch" {
			name = "server.patch_handler"
		}
		r.tr.record(open{id: id, req: id}, name, start, end)
	})
}

// servedSample compares served answers — every hit, in order — with the
// library's answers for four queries of each class.
func (r *runner) servedSample(ep *endpoint, doc *xmlvi.Document) error {
	for i, q := range r.in.queries {
		if i%literalsPerClass >= 4 {
			continue
		}
		want, err := doc.Query(q.text)
		if err != nil {
			return err
		}
		var resp server.QueryResponse
		_, err = post(ep, "/v1/query", "serve.sample", r.tr, server.QueryRequest{Query: q.text, Limit: len(want) + 1}, &resp)
		got := make([]key, len(resp.Results))
		for j, it := range resp.Results {
			got[j] = hit(xmlvi.Node(it.Node), xmlvi.Attr(it.Attr), it.IsAttr)
		}
		r.check(err == nil && resp.Count == len(want) && slices.Equal(got, keys(want)),
			"served %s: %d hits, library %d (%v)", q.text, resp.Count, len(want), err)
	}
	return nil
}
