// Command simd serves the CMP simulator as a crash-resilient HTTP service.
//
// POST /v1/sweep takes an experiment spec (kernels × barrier mechanisms ×
// chaos profiles × seeds on one machine shape) and streams per-cell
// results as NDJSON. Results are content-addressed — identical specs are
// served from cache, and recomputations are byte-checked against it — and
// sweeps journal durably, so a killed server resumes a resubmitted sweep
// to byte-identical results. See internal/simd for the full contract.
//
// Usage:
//
//	simd -addr :8765 -journal /var/tmp/simd -cache /var/tmp/simd-cache
//	simd -addr 127.0.0.1:0 -addrfile simd.addr   # ephemeral port, published
//
// SIGTERM or ^C cancels every in-flight sweep at its next stop check (its
// stream ends with a "canceled" error line and its journal is a clean
// prefix a resubmission resumes from) and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/simd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8765", "listen address (port 0 picks an ephemeral port)")
	addrfile := flag.String("addrfile", "", "write the server's base URL to this file once listening (for scripts using port 0)")
	workers := flag.Int("workers", 0, "concurrent simulation cells across all sweeps (0 = default 4)")
	maxsweeps := flag.Int("maxsweeps", 0, "admitted sweeps at once before shedding/429 (0 = default 8)")
	maxcells := flag.Int("maxcells", 0, "cells allowed per sweep (0 = default 4096)")
	cacheDir := flag.String("cache", "", "persist the content-addressed result cache in this directory")
	journalDir := flag.String("journal", "", "journal every sweep under this directory (crash recovery + byte-identical resume)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 429 responses (0 = default 1s)")
	flag.Parse()

	cfg := simd.Config{
		Workers:    *workers,
		MaxSweeps:  *maxsweeps,
		CacheDir:   *cacheDir,
		JournalDir: *journalDir,
		RetryAfter: *retryAfter,
	}
	if *maxcells > 0 {
		cfg.Limits = simd.DefaultLimits()
		cfg.Limits.MaxCells = *maxcells
	}
	srv, err := simd.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: listen: %v\n", err)
		os.Exit(1)
	}
	url := "http://" + ln.Addr().String()
	if *addrfile != "" {
		// temp+rename so a watcher never reads a half-written URL.
		tmp := *addrfile + ".tmp"
		if err := os.WriteFile(tmp, []byte(url+"\n"), 0o644); err == nil {
			err = os.Rename(tmp, *addrfile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd: addrfile: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "simd: listening on %s\n", url)

	// Every request context derives from base, so one cancel on a signal
	// reaches every in-flight sweep.
	base, stopRequests := context.WithCancel(context.Background())
	defer stopRequests()
	hs := &http.Server{Handler: srv, BaseContext: func(net.Listener) context.Context { return base }}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		// Drain: canceled sweeps stop at their next stop check, write their
		// "canceled" line and return, leaving journals that are clean
		// prefixes (resubmission re-runs the rest — the crash contract).
		// The grace period only bounds a handler that fails to notice.
		fmt.Fprintf(os.Stderr, "simd: %v: draining\n", sig)
		stopRequests()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "simd: shutdown: %v\n", err)
			os.Exit(1)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "simd: serve: %v\n", err)
			os.Exit(1)
		}
	}
}
