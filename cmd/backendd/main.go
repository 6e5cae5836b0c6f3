// Command backendd runs the backend database tier as a standalone TCP
// server — the remote DBMS of the paper's three-tier setup. Middle tiers
// connect with backend.Dial.
//
// Usage:
//
//	backendd -scale small -listen 127.0.0.1:7070
//	backendd -scale medium -seed 7 -sleep
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/wire"
)

func main() {
	var (
		scaleFlag  = flag.String("scale", "small", "dataset scale: tiny|small|medium|full")
		seedFlag   = flag.Int64("seed", 1, "generator seed")
		listenFlag = flag.String("listen", "127.0.0.1:7070", "listen address")
		sleepFlag  = flag.Bool("sleep", false, "actually sleep the simulated backend latency")

		readTimeoutFlag  = flag.Duration("read-timeout", wire.DefaultTimeouts.Read, "idle deadline per connection awaiting the next request (0 = none)")
		writeTimeoutFlag = flag.Duration("write-timeout", wire.DefaultTimeouts.Write, "deadline for writing one response")
		reqTimeoutFlag   = flag.Duration("request-timeout", wire.DefaultTimeouts.Request, "compute deadline per request, replied as a transient error (0 = none)")
	)
	flag.Parse()

	scale, err := apb.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	grid, tab, err := apb.New(scale).Build(*seedFlag)
	if err != nil {
		fatal(err)
	}
	latency := backend.DefaultLatency
	latency.Sleep = *sleepFlag
	engine, err := backend.NewEngine(grid, tab, latency)
	if err != nil {
		fatal(err)
	}
	srv := backend.NewServer(engine)
	srv.SetTimeouts(wire.Timeouts{
		Read:    *readTimeoutFlag,
		Write:   *writeTimeoutFlag,
		Request: *reqTimeoutFlag,
	})
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
