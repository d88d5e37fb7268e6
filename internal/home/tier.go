package home

import (
	"fmt"
	"strconv"

	"dssp/internal/homeserver"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// NewTier builds a whole trusted tier — the one builder behind the HTTP
// fleet assembler and the simulator: parts partition primaries, in
// partition order, and replicas read replicas mirroring each, all armed
// with the misroute guard. newDB is called once per engine, primaries
// first, and must return byte-identical databases (same application
// seed), which is what lets a replica replay its primary's confirmed
// stream from sequence 0. A replica's name, its metric label, is its
// index, prefixed with the partition in a partitioned tier. Feeding each
// primary's confirmed stream to its replicas is the caller's: that part
// differs by substrate.
func NewTier(app *template.App, codec *wire.Codec, newDB func() (*storage.Database, error), parts, replicas int) ([]*homeserver.Server, [][]*Replica, error) {
	primaries := make([]*homeserver.Server, parts)
	for p := range primaries {
		db, err := newDB()
		if err != nil {
			return nil, nil, err
		}
		primaries[p] = homeserver.New(db, app, codec)
		primaries[p].SetPartition(p, parts)
	}
	reps := make([][]*Replica, parts)
	for p := range reps {
		for k := 0; k < replicas; k++ {
			db, err := newDB()
			if err != nil {
				return nil, nil, err
			}
			name := strconv.Itoa(k)
			if parts > 1 {
				name = fmt.Sprintf("p%d-%d", p, k)
			}
			rep := NewReplica(name, db, app, codec)
			rep.SetPartition(p, parts)
			reps[p] = append(reps[p], rep)
		}
	}
	return primaries, reps, nil
}
