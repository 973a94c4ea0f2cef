package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// ShardLocal is the ring entry meaning "run on this process".
const ShardLocal = "local"

// CellsRequest is the wire format of the shard-internal /v1/cells call:
// the full sweep spec (normalization is deterministic, so cell indices
// mean the same thing on every shard) plus the indices this shard runs.
type CellsRequest struct {
	Spec    Spec  `json:"spec"`
	Indices []int `json:"indices"`
}

// shardIndex deterministically places a cell hash on a ring of n shards.
func shardIndex(hash string, n int) int {
	if n <= 1 {
		return 0
	}
	// The hash is hex; its leading 15 digits fit uint64 exactly.
	h := hash
	if len(h) > 15 {
		h = h[:15]
	}
	v, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		return 0
	}
	return int(v % uint64(n))
}

// runShard executes cells on a remote shard with per-attempt timeouts and
// doubling backoff between retries. Results come back keyed, so
// duplicated or reordered response entries cannot misattribute a cell. A
// shard that stays down after every retry degrades, not fails, the sweep:
// each of its cells is answered as status "missing" naming the shard, and
// none of them is journaled or cached, so a resubmission retries them.
// Every cell is resolved exactly once, whatever happens — the sweep's
// Runner waits for each.
func (s *Server) runShard(ctx context.Context, sw *Sweep, shard string, cells []Cell, resolve func(i int, o outcome)) {
	indices := make([]int, len(cells))
	for i, c := range cells {
		indices[i] = c.Index
	}
	body, err := json.Marshal(CellsRequest{Spec: sw.Spec, Indices: indices})
	if err != nil {
		shardDown(shard, cells, fmt.Sprintf("encoding request: %v", err), resolve)
		return
	}

	var lastErr error
	backoff := s.cfg.ShardBackoff
	for attempt := 0; attempt <= s.cfg.ShardRetries && ctx.Err() == nil; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				continue // the loop condition ends the retries
			}
		}
		res, err := s.callShard(ctx, shard, body)
		if err == nil {
			s.shardResults(shard, cells, res, resolve)
			return
		}
		lastErr = err
	}
	if ctx.Err() != nil {
		for _, c := range cells {
			resolve(c.Index, outcome{canceled: true})
		}
		return
	}
	shardDown(shard, cells,
		fmt.Sprintf("unreachable after %d attempts: %v", s.cfg.ShardRetries+1, lastErr), resolve)
}

// callShard makes one attempt against a shard's /v1/cells.
func (s *Server) callShard(ctx context.Context, shard string, body []byte) ([]Result, error) {
	actx, cancel := context.WithTimeout(ctx, s.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, shard+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error *Error `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != nil {
			return nil, fmt.Errorf("shard answered %d: %w", resp.StatusCode, e.Error)
		}
		return nil, fmt.Errorf("shard answered %d", resp.StatusCode)
	}
	var out []Result
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding shard response: %w", err)
	}
	return out, nil
}

// shardResults matches a shard's keyed results back to its cells, caching
// ok results (an oracle check when the hash is already cached) and
// attributing any cell the shard failed to answer.
func (s *Server) shardResults(shard string, cells []Cell, res []Result, resolve func(i int, o outcome)) {
	byKey := make(map[string]Result, len(res))
	for _, r := range res {
		if _, dup := byKey[r.Key]; !dup {
			byKey[r.Key] = r
		}
	}
	var unanswered []Cell
	for _, c := range cells {
		if r, ok := byKey[c.Key]; ok {
			resolve(c.Index, outcome{shard: shard, res: s.store(c, r)})
		} else {
			unanswered = append(unanswered, c)
		}
	}
	shardDown(shard, unanswered, "returned no result for this cell", resolve)
}

// shardDown answers every cell of a lost shard as attributed-missing.
func shardDown(shard string, cells []Cell, detail string, resolve func(i int, o outcome)) {
	for _, c := range cells {
		resolve(c.Index, outcome{shard: shard, missing: true,
			res: Result{Key: c.Key, Hash: c.Hash, Status: "missing",
				Error: fmt.Sprintf("shard %s %s", shard, detail)}})
	}
}
