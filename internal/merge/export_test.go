package merge

import (
	"fmt"
	"os"
)

// WALDeltaFrames returns the delta payload of every publish and mirror
// record in the log at path, keyed "kind session/worker/seq" with kind
// "publish" or "mirror".
func WALDeltaFrames(path string) (map[string][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]byte)
	_, _, err = scanFile(f, func(rec *walRecord) error {
		switch rec.Kind {
		case walPublish:
			p := rec.Publish
			out[fmt.Sprintf("publish %s/%s/%d", p.SessionID, p.WorkerID, p.Seq)] = p.frame
		case walMirror:
			a := rec.Mirror
			out[fmt.Sprintf("mirror %s/%s/%d", a.SessionID, a.WorkerID, a.Seq)] = a.frame
		}
		return nil
	})
	return out, err
}
