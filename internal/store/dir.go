package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Dir is a directory of episode logs, one `<id>.ceplog` per episode —
// the storage the hub's /episodes HTTP endpoints serve from. Episode
// ids are restricted to a safe charset so ids coming off a URL cannot
// escape the directory.
type Dir struct {
	path string
}

// logExt is the episode log file suffix.
const logExt = ".ceplog"

// OpenDir opens (creating if needed) an episode directory.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return &Dir{path: path}, nil
}

// validID permits letters, digits, dot, dash and underscore — no
// separators, so an id is always a single file name inside the dir.
func validID(id string) bool {
	if id == "" || id == "." || id == ".." || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// file resolves an id to its log path.
func (d *Dir) file(id string) (string, error) {
	if !validID(id) {
		return "", fmt.Errorf("store: invalid episode id %q", id)
	}
	return filepath.Join(d.path, id+logExt), nil
}

// Create starts a new episode log under the given id.
//
//cooper:deadexport test fixture: the store and hub tests file episodes into a Dir with it
func (d *Dir) Create(id string, h Header) (*EpisodeWriter, error) {
	path, err := d.file(id)
	if err != nil {
		return nil, err
	}
	return CreateEpisode(path, h)
}

// List returns the stored episode ids, sorted.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), logExt) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(e.Name(), logExt))
	}
	sort.Strings(ids)
	return ids, nil
}

// Read decodes the episode stored under id.
func (d *Dir) Read(id string) (*Episode, error) {
	path, err := d.file(id)
	if err != nil {
		return nil, err
	}
	return ReadEpisodeFile(path)
}

// Replay decodes and replays the episode stored under id.
func (d *Dir) Replay(id string) ([]Detections, ReplayStats, error) {
	path, err := d.file(id)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	return ReplayFile(path)
}
