package apps

import (
	"fmt"

	"dssp/internal/workload"
)

// ByName resolves an -app flag value to a fresh benchmark instance. It is
// the tree's only application-name table: every binary and experiment
// resolves names here, so they cannot disagree about which applications
// exist or how an unknown one is reported.
func ByName(name string) (workload.Benchmark, error) {
	switch name {
	case "auction":
		return NewAuction(), nil
	case "bboard":
		return NewBBoard(), nil
	case "bookstore":
		return NewBookstore(), nil
	case "toystore":
		return NewToystoreBench(), nil
	default:
		return nil, fmt.Errorf("unknown application %q", name)
	}
}
