package home

import (
	"fmt"
	"log/slog"
	"strconv"

	"dssp/internal/homeserver"
	"dssp/internal/pipeline"
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
// differs by substrate (TierParts is the in-process one).
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

// TierParts is the in-process substrate's half of the node→home wiring:
// over exactly what NewTier returns, it feeds each primary's confirmed
// stream to that partition's replicas — every released batch, in sequence
// order, on the confirming goroutine — and returns the endpoints
// pipeline.NewTierTransport composes: a direct transport per primary, a
// floor-checking backend per replica. Call before serving traffic; it
// takes each replicated primary's one OnConfirm sink.
//
// A replica whose apply fails stops advancing, so every miss that needs
// the failed update bypasses to the primary; ApplyBatch counts the
// failure and the feed logs the replica's first.
func TierParts(primaries []*homeserver.Server, replicas [][]*Replica) []pipeline.TierPart {
	parts := make([]pipeline.TierPart, len(primaries))
	for p, primary := range primaries {
		parts[p].Primary = pipeline.NewDirectTransport(primary)
		reps := replicas[p]
		if len(reps) == 0 {
			continue
		}
		for _, r := range reps {
			parts[p].Replicas = append(parts[p].Replicas,
				pipeline.ReplicaEndpoint{Name: r.Name(), Backend: r.QueryBackend()})
		}
		logged := make([]bool, len(reps)) // the sink's calls are serialized
		primary.OnConfirm(func(batch []homeserver.Confirmed) {
			for i, r := range reps {
				if err := r.ApplyBatch(batch); err != nil && !logged[i] {
					logged[i] = true
					slog.Error("home: replica apply failed; the replica serves no miss past this update", "replica", r.Name(), "err", err)
				}
			}
		})
	}
	return parts
}
