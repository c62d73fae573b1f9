package main

import (
	"context"
	"fmt"
	"net/http"
)

// fleetLayerStats reads the serve and router per-layer figures: request
// service times split by the router's X-Adapt-Router-Cache header, and the
// replicas' and router's own counters.
func fleetLayerStats(fr *fleetRun, hitMs, missMs []float64) map[string]float64 {
	rows := fr.serveCounter("serve_nn_batch_rows")
	batches := fr.serveCounter("serve_nn_batches")
	reqs := fr.rt.Metrics().Counter("router_requests").Load()
	return map[string]float64{
		"serve.hit_p50_ms":         quantile(hitMs, 0.5),
		"serve.miss_p50_ms":        quantile(missMs, 0.5),
		"serve.rejected_429":       float64(fr.serveCounter("serve_localize_rejected") + fr.serveCounter("serve_skymap_rejected")),
		"serve.nn_batch_rows_mean": float64(rows) / float64(max(batches, 1)),
		"router.cache_hit_ratio":   float64(fr.rt.Metrics().Counter("router_cache_hits").Load()) / float64(max(reqs, 1)),
		"router.retries":           float64(fr.rt.Metrics().Counter("router_retries").Load()),
	}
}

var serveStatUnits = map[string]string{
	"serve.hit_p50_ms": "ms", "serve.miss_p50_ms": "ms", "serve.rejected_429": "count",
	"serve.nn_batch_rows_mean": "rows", "router.cache_hit_ratio": "ratio", "router.retries": "count",
}

// fleetProbe boots a fleet with the workload's models and backend and, for
// each of up to ledgerProbeBodies bodies, sends it straight to a replica
// and through the router (a cache miss, in alternating order so warm-up
// favours neither), then through the router again (a cache hit). The
// router's overhead is the routed miss time minus the direct time for the
// same body. Unless the workload's own traced run supplied them, the probe
// also gives the serve and router per-layer figures.
func (l *ledger) fleetProbe(in *layerInputs, bodies [][]byte) error {
	fr, err := startFleet(in.bundle, in.backend)
	if err != nil {
		return err
	}
	defer fr.stop()
	client := newClient(1)
	defer client.CloseIdleConnections()

	send := func(layer, base string, body []byte, g string) (float64, string, error) {
		sp := l.tr.begin(layer, "POST /v1/localize", l.root, g)
		st, cache, _, err := post(context.Background(), client, base+"/v1/localize", body)
		d := sp.end(1)
		if err != nil || st != http.StatusOK {
			return 0, "", fmt.Errorf("probe request via %s: status %d, %v", base, st, err)
		}
		return float64(d) / 1e6, cache, nil
	}
	var overhead, hitMs, missMs []float64
	for k := 0; k < min(len(bodies), ledgerProbeBodies); k++ {
		g := "probe-" + fmt.Sprint(k)
		var direct, routed float64
		var err error
		if k%2 == 0 {
			if direct, _, err = send("serve", fr.direct[0], bodies[k], g); err == nil {
				routed, _, err = send("router", fr.url, bodies[k], g)
			}
		} else {
			if routed, _, err = send("router", fr.url, bodies[k], g); err == nil {
				direct, _, err = send("serve", fr.direct[0], bodies[k], g)
			}
		}
		if err != nil {
			return err
		}
		hit, cache, err := send("router", fr.url, bodies[k], g)
		if err != nil {
			return err
		}
		if cache != "hit" {
			return fmt.Errorf("probe: repeated body %d was a router cache %q, not a hit", k, cache)
		}
		overhead = append(overhead, routed-direct)
		missMs = append(missMs, routed)
		hitMs = append(hitMs, hit)
	}
	l.set("router.overhead_ms", median(overhead), "ms")

	stats := in.serveStats
	if stats == nil {
		stats = fleetLayerStats(fr, hitMs, missMs)
	}
	for name, v := range stats {
		l.set(name, v, serveStatUnits[name])
	}
	return nil
}
