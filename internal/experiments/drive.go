package experiments

import (
	"math/rand"

	"dssp/internal/encrypt"
	"dssp/internal/httpapi"
	"dssp/internal/storage"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// benchSpec describes an HTTP deployment of a benchmark application under
// the all-zero demo key, every database populated from seed; callers add
// the topology.
func benchSpec(b workload.Benchmark, seed int64) httpapi.Spec {
	app := b.App()
	return httpapi.Spec{
		App:   app,
		Codec: wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil),
		NewDB: func() (*storage.Database, error) {
			db := storage.NewDatabase(app.Schema)
			return db, b.Populate(db, rand.New(rand.NewSource(seed)))
		},
	}
}
