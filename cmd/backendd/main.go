// Command backendd runs the backend database tier as a standalone TCP
// server — the remote DBMS of the paper's three-tier setup. Middle tiers
// connect with backend.Dial.
//
// Usage:
//
//	backendd -scale small -listen 127.0.0.1:7070
//	backendd -scale medium -data histsale.gob -sleep
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/data"
)

func main() {
	var (
		scaleFlag  = flag.String("scale", "small", "dataset scale: tiny|small|medium|full")
		seedFlag   = flag.Int64("seed", 1, "generator seed (when -data is not given)")
		dataFlag   = flag.String("data", "", "fact table file from apbgen (optional)")
		listenFlag = flag.String("listen", "127.0.0.1:7070", "listen address")
		sleepFlag  = flag.Bool("sleep", false, "actually sleep the simulated backend latency")

		readTimeoutFlag  = flag.Duration("read-timeout", backend.DefaultTimeouts.Read, "idle deadline per connection awaiting the next request (0 = none)")
		writeTimeoutFlag = flag.Duration("write-timeout", backend.DefaultTimeouts.Write, "deadline for writing one response")
		reqTimeoutFlag   = flag.Duration("request-timeout", backend.DefaultTimeouts.Request, "compute deadline per request, replied as a transient error (0 = none)")
		maxFrameFlag     = flag.Int("wire-max-frame", 0, "max wire frame payload in bytes (0 = 64MiB default)")
		inFlightFlag     = flag.Int("wire-max-inflight", 0, "max concurrently served frames per connection (0 = 32 default)")
		busyLimitFlag    = flag.Int("busy-limit", 0, "max concurrently computed requests server-wide before shedding with a Busy reply (0 = unlimited)")
	)
	flag.Parse()

	scale, err := apb.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	cfg := apb.New(scale)
	grid, err := chunk.NewGrid(cfg.Schema, cfg.ChunkCounts)
	if err != nil {
		fatal(err)
	}
	var tab *data.Table
	if *dataFlag != "" {
		f, err := os.Open(*dataFlag)
		if err != nil {
			fatal(err)
		}
		tab, err = data.LoadTable(f, cfg.Schema)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		tab, err = data.Generate(cfg.Schema, data.Params{
			Rows: cfg.Rows, Density: cfg.Density, TimeDim: cfg.TimeDim, Seed: *seedFlag,
		})
		if err != nil {
			fatal(err)
		}
	}
	latency := backend.DefaultLatency
	latency.Sleep = *sleepFlag
	engine, err := backend.NewEngine(grid, tab, latency)
	if err != nil {
		fatal(err)
	}
	srv := backend.NewServer(engine)
	srv.SetTimeouts(backend.Timeouts{
		Read:    *readTimeoutFlag,
		Write:   *writeTimeoutFlag,
		Request: *reqTimeoutFlag,
	})
	srv.SetMaxPayload(*maxFrameFlag)
	srv.SetMaxInFlight(*inFlightFlag)
	srv.SetBusyLimit(*busyLimitFlag)
	addr, err := srv.Listen(*listenFlag)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("backendd: %d rows (%s scale) serving on %s\n", tab.Len(), scale, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("backendd: shutting down")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "backendd:", err)
	os.Exit(1)
}
