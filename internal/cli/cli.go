// Package cli holds the helper the command-line tools in cmd/ share:
// logic-table acquisition (load from disk or build on the fly).
package cli

import (
	"fmt"
	"os"
	"runtime"

	"acasxval/internal/acasx"
)

// LoadOrBuildTable loads the logic table from path when it exists;
// otherwise it builds one (full or coarse resolution) and, when path is
// non-empty, saves it there for reuse.
func LoadOrBuildTable(path string, coarse bool, workers int) (*acasx.Table, error) {
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			table, err := acasx.LoadTable(path)
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", path, err)
			}
			return table, nil
		}
	}
	cfg := acasx.DefaultConfig()
	if coarse {
		cfg = acasx.CoarseConfig()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	cfg.Workers = workers
	table, err := acasx.BuildTable(cfg)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := table.Save(path); err != nil {
			return nil, err
		}
	}
	return table, nil
}
