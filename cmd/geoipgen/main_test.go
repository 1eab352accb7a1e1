package main

import (
	"os"
	"path/filepath"
	"testing"

	"vns/internal/experiments"
	"vns/internal/geoip"
)

// TestWriteIsTheWorldsDatabase pins what the command writes to the
// database the world's reflector queries: the same records, in the same
// order, as NewEnv's DB (and TruthDB under -truth) for the same seed and
// size. A second database builder, seeded differently, fails it.
func TestWriteIsTheWorldsDatabase(t *testing.T) {
	const seed, numAS = 1, 120
	env := experiments.NewEnv(experiments.Config{Seed: seed, NumAS: numAS})
	for _, tc := range []struct {
		name  string
		truth bool
		want  *geoip.DB
	}{
		{"commercial", false, env.DB},
		{"truth", true, env.TruthDB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "geoip.db")
			if err := write(path, seed, numAS, tc.truth); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got := geoip.New()
			if _, err := got.ReadFrom(f); err != nil {
				t.Fatal(err)
			}
			gotRecs, wantRecs := records(got), records(tc.want)
			if len(gotRecs) != len(wantRecs) {
				t.Fatalf("wrote %d records, the world's database has %d", len(gotRecs), len(wantRecs))
			}
			differ := 0
			for i := range gotRecs {
				if gotRecs[i] != wantRecs[i] {
					if differ == 0 {
						t.Errorf("record %d: wrote %+v, the world's database has %+v", i, gotRecs[i], wantRecs[i])
					}
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d records differ", differ, len(wantRecs))
			}
		})
	}
}

func records(db *geoip.DB) []geoip.Record {
	var out []geoip.Record
	db.Walk(func(rec geoip.Record) bool {
		out = append(out, rec)
		return true
	})
	return out
}
