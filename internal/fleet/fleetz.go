package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ladm/internal/simsvc"
)

// scrapeTimeout bounds one worker's /statusz scrape; a wedged worker
// must not stall the whole /fleetz response.
const scrapeTimeout = 2 * time.Second

// maxScrapeBytes caps each scraped document (a worker /statusz is a
// few KB; this is sabotage protection, not a limit).
const maxScrapeBytes = 4 << 20

// Cluster implements the /fleetz aggregation (simsvc.Fleet): every
// endpoint's /statusz scraped concurrently through the fleet's own
// client — including any fault-injecting transport —
// merged with the dispatcher's local endpoint state and the per-
// endpoint fleet_attempt_seconds digests.
func (r *Runner) Cluster(ctx context.Context) []simsvc.FleetWorker {
	eps := r.Endpoints()
	digests := r.attemptDigests()
	out := make([]simsvc.FleetWorker, len(eps))
	var wg sync.WaitGroup
	for i := range eps {
		out[i].FleetEndpoint = eps[i]
		out[i].Attempts = digests[eps[i].URL]
		wg.Add(1)
		go func(w *simsvc.FleetWorker) {
			defer wg.Done()
			r.scrapeWorker(ctx, w)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// attemptDigests folds the attempt-latency histogram children into
// per-endpoint (outcome, count, mean) rows.
func (r *Runner) attemptDigests() map[string][]simsvc.FleetAttemptDigest {
	out := map[string][]simsvc.FleetAttemptDigest{}
	for _, c := range r.m.attemptSeconds.Children() {
		if len(c.Labels) != 2 || c.Count == 0 {
			continue
		}
		ep, outcome := c.Labels[0], c.Labels[1]
		out[ep] = append(out[ep], simsvc.FleetAttemptDigest{
			Outcome:     outcome,
			Count:       c.Count,
			MeanSeconds: c.Sum / float64(c.Count),
		})
	}
	return out
}

// scrapeWorker fills one worker's self-reported state from one GET
// /statusz; on failure the dispatcher-side fields stay and Error says
// why.
func (r *Runner) scrapeWorker(ctx context.Context, w *simsvc.FleetWorker) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	var st simsvc.Statusz
	if err := r.scrapeJSON(ctx, w.URL+"/statusz", &st); err != nil {
		w.Error = err.Error()
		return
	}
	w.Statusz = &st
}

func (r *Runner) scrapeJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxScrapeBytes)).Decode(v)
}
