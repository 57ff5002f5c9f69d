package engine

import (
	"encoding/json"

	"hdsmt/internal/core"
)

// The checkpoint journal is an append-only JSONL file: one line per
// completed job, {"key": <request key>, "result": <core.Results>}. A sweep
// killed mid-flight loses at most the simulations that had not yet
// completed; pointing a new engine at the same path preloads every
// journaled result, so the re-run only executes the remainder. A torn
// final line (the process died mid-write) is counted, skipped and healed
// on load. The file is opened and appended through internal/jsonl.

type journalEntry struct {
	Key    string       `json:"key"`
	Result core.Results `json:"result"`
}

// decodeEntry parses one journal line; an error marks it torn or corrupt,
// and its job simply re-runs.
func decodeEntry(line []byte) (ent journalEntry, err error) {
	err = json.Unmarshal(line, &ent)
	return ent, err
}

// appendEntry appends the journal line of one completed job to b.
func appendEntry(b []byte, key string, res core.Results) ([]byte, error) {
	line, err := json.Marshal(journalEntry{Key: key, Result: res})
	return append(b, line...), err
}
