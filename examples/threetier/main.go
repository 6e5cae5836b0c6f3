// Threetier: the paper's full deployment shape — a backend database server
// and a middle-tier cache server on their own TCP endpoints, and a client
// speaking the mdq query language to the middle tier. Everything runs in
// this process but talks over real localhost sockets with the gob wire
// protocols.
package main

import (
	"context"
	"fmt"
	"log"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/core"
	"aggcache/internal/mtier"
)

func main() {
	cfg := apb.New(apb.ScaleTiny)

	// ---- Tier 3: the backend database server ----
	grid, table, err := cfg.Build(5)
	if err != nil {
		log.Fatal(err)
	}
	dbEngine, err := backend.NewEngine(grid, table, backend.DefaultLatency)
	if err != nil {
		log.Fatal(err)
	}
	dbServer := backend.NewServer(dbEngine)
	dbAddr, err := dbServer.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer dbServer.Close()
	fmt.Printf("backend tier:     %d rows served on %s\n", table.Len(), dbAddr)

	// ---- Tier 2: the middle tier with the aggregate aware cache ----
	remoteDB, err := backend.Dial(dbAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer remoteDB.Close()
	middle, err := core.Build(core.Config{
		Grid: grid, Backend: remoteDB, Rows: int64(table.Len()),
		Strategy: "VCMC", HotBytes: 256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	mtServer := mtier.NewServer(middle.Engine)
	mtAddr, err := mtServer.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mtServer.Close()
	fmt.Printf("middle tier:      VCMC + two-level policy, 256KB cache, serving on %s\n", mtAddr)

	// ---- Tier 1: the client, speaking mdq over TCP ----
	client, err := mtier.Dial(mtAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	fmt.Println("client:           connected")

	session := []string{
		"SUM(UnitSales) BY Product:Code, Time:Month, Channel:Base",
		"SUM(UnitSales) BY Product:Group, Time:Month",
		"SUM(UnitSales) BY Time:Month",
		"AVG(UnitSales) BY Time:Year",
		"COUNT(UnitSales) BY Product:Group",
	}
	fmt.Println("\nclient session:")
	for _, src := range session {
		resp, err := client.Query(src)
		if err != nil {
			log.Fatal(err)
		}
		where := "backend over TCP"
		if resp.CompleteHit {
			where = "middle-tier cache"
			if resp.Aggregated {
				where = "middle-tier cache (aggregated)"
			}
		}
		var total float64
		for _, c := range resp.Cells {
			total += c.Value
		}
		fmt.Printf("  %-55s %4d cells  %-30s (%v)\n", src, len(resp.Cells), where, resp.Total().Round(1000))
	}

	// Verify the distributed answer against a direct computation.
	lat := grid.Lattice()
	local, _, err := dbEngine.ComputeChunks(context.Background(), lat.Top(), []int{0})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := client.Query("SUM(UnitSales) BY Product:Group WHERE Product:Group IN 0..1")
	if err != nil {
		log.Fatal(err)
	}
	var total float64
	for _, c := range resp.Cells {
		total += c.Value
	}
	fmt.Printf("\nconsistency check: client total %.2f == backend total %.2f\n",
		total, local[0].Total())
}
