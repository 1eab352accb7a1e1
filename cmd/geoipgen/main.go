// Command geoipgen writes a world's GeoIP database to a file in the
// binary geoip format, or dumps such a file. The database is the one the
// geo route reflector queries in the world vnsd, cmd/experiments and the
// scenario harness build from the same -seed and -numas: commercial
// quality (the calibrated error model), or under -truth the ground truth
// it was corrupted from. Nothing in the tree loads the file; it is for
// inspection and for tools outside the tree.
//
//	geoipgen -numas 3000 -out geoip.db          # commercial quality
//	geoipgen -truth -out truth.db               # ground truth
//	geoipgen -dump geoip.db | head              # inspect a database
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vns/internal/experiments"
	"vns/internal/geoip"
)

func main() {
	numAS := flag.Int("numas", 3000, "synthetic Internet size")
	seed := flag.Uint64("seed", 1, "world seed")
	truth := flag.Bool("truth", false, "write ground truth instead of commercial quality")
	out := flag.String("out", "geoip.db", "output file")
	dumpFile := flag.String("dump", "", "dump an existing database file and exit")
	flag.Parse()

	log.SetPrefix("geoipgen: ")
	log.SetFlags(0)

	var err error
	if *dumpFile != "" {
		err = dump(*dumpFile)
	} else {
		err = write(*out, *seed, *numAS, *truth)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// write builds the world for seed and numAS and writes its reflector's
// database to path, or with truth the ground-truth database.
func write(path string, seed uint64, numAS int, truth bool) error {
	env := experiments.NewEnv(experiments.Config{Seed: seed, NumAS: numAS})
	db, kind := env.DB, "commercial-quality"
	if truth {
		db, kind = env.TruthDB, "ground-truth"
	} else {
		log.Printf("accuracy vs ground truth: %v", geoip.CompareAccuracy(env.TruthDB, env.DB))
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := db.WriteTo(f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote %s database: %d records, %d bytes -> %s", kind, db.Len(), n, path)
	return nil
}

// dump prints every record of the database file at path.
func dump(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db := geoip.New()
	if _, err := db.ReadFrom(f); err != nil {
		return err
	}
	stale := 0
	db.Walk(func(rec geoip.Record) bool {
		flag := ""
		if rec.Stale {
			flag = " [stale]"
			stale++
		}
		fmt.Printf("%-18v %-2s %v (%.2f, %.2f)%s\n",
			rec.Prefix, rec.Country, rec.Region, rec.Pos.Lat, rec.Pos.Lon, flag)
		return true
	})
	fmt.Fprintf(os.Stderr, "%d records, %d stale\n", db.Len(), stale)
	return nil
}
