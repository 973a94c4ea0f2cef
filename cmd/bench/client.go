package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
)

// runClient is bench's simd-client mode (-server URL): submit a sweep spec
// to a simd server and print each cell's result object — exactly the bytes
// the server sent — one per line on stdout. Stream bookkeeping (accepted,
// done, cache/replay provenance) goes to stderr, so two runs of the same
// spec can be compared byte-for-byte on stdout alone: that is how the
// smoke test proves a killed-and-resumed sweep equals an uninterrupted
// one, and how a -nofastpath pass proves the cache oracle.
//
// The spec comes from -spec: inline JSON (first byte '{'), "-" for stdin,
// or a file path. An empty -spec submits the server-default microbench
// sweep.
func runClient(server, specArg string) int {
	spec, err := loadSpec(specArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -spec: %v\n", err)
		return 2
	}
	resp, err := http.Post(strings.TrimRight(server, "/")+"/v1/sweep", "application/json", bytes.NewReader(spec))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "bench: server answered %s", resp.Status)
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			fmt.Fprintf(os.Stderr, " (Retry-After: %ss)", ra)
		}
		fmt.Fprintf(os.Stderr, ": %s\n", bytes.TrimSpace(body))
		return 1
	}

	// Each stream line is decoded just enough to route it; the result
	// payload is passed through as raw bytes, never re-encoded.
	type line struct {
		Type   string          `json:"type"`
		Sweep  string          `json:"sweep"`
		Cells  int             `json:"cells"`
		Index  *int            `json:"index"`
		Cached bool            `json:"cached"`
		Replay bool            `json:"replayed"`
		Result json.RawMessage `json:"result"`
		OK     int             `json:"ok"`
		Errors int             `json:"errors"`
		Error  json.RawMessage `json:"error"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	exit := 0
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			fmt.Fprintf(os.Stderr, "bench: bad stream line %q: %v\n", sc.Text(), err)
			return 1
		}
		switch l.Type {
		case "accepted":
			fmt.Fprintf(os.Stderr, "bench: sweep %s accepted, %d cells\n", l.Sweep, l.Cells)
		case "cell":
			fmt.Println(string(l.Result))
			if l.Cached || l.Replay {
				prov := ""
				if l.Cached {
					prov += " cached"
				}
				if l.Replay {
					prov += " replayed"
				}
				fmt.Fprintf(os.Stderr, "bench: cell %d:%s\n", *l.Index, prov)
			}
		case "done":
			fmt.Fprintf(os.Stderr, "bench: done: %d ok, %d errors of %d cells\n", l.OK, l.Errors, l.Cells)
			if l.Errors > 0 {
				exit = 1
			}
		case "error":
			fmt.Fprintf(os.Stderr, "bench: sweep failed: %s\n", l.Error)
			return 1
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: reading stream: %v\n", err)
		return 1
	}
	return exit
}

// loadSpec resolves the -spec argument to raw JSON bytes.
func loadSpec(arg string) ([]byte, error) {
	switch {
	case arg == "":
		return []byte(`{"kernels":["microbench"]}`), nil
	case strings.HasPrefix(strings.TrimSpace(arg), "{"):
		return []byte(arg), nil
	case arg == "-":
		return io.ReadAll(os.Stdin)
	default:
		return os.ReadFile(arg)
	}
}
