package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"omnc/internal/jobs"
)

// references maps workload -> op key -> result digest of the code the
// benchmark was recorded against.
type references map[string]map[string]string

//go:embed references.json
var referencesJSON []byte

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referencesJSON, &r); err != nil {
		return nil, fmt.Errorf("references.json: %w", err)
	}
	return r, nil
}

// recordReferences runs every catalog op once and writes the digests to
// path. The simulation digests come from the same code path the workloads
// run; the Spec digests, which the jobs workload and the serve harness
// check, come from plain jobs.Run.
func recordReferences(path string) error {
	cat, err := buildCatalog(true)
	if err != nil {
		return err
	}
	refs := references{}
	for _, w := range simWorkloads {
		start := time.Now()
		s := &simInstance{w: w, cat: cat, protos: protocols()}
		ops := pairOps(cat, 0)
		if w.multi {
			ops = setOps(cat, 0)
		}
		refs[w.name] = map[string]string{}
		for _, op := range ops {
			d, err := s.runOp(op)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, op.key, err)
			}
			refs[w.name][op.key] = d
		}
		fmt.Fprintf(os.Stderr, "perfbench: recorded %d %s ops in %v\n", len(ops), w.name, time.Since(start).Round(time.Millisecond))
	}
	refs["jobs"] = map[string]string{}
	for _, sc := range specCatalog() {
		res, err := jobs.Run(context.Background(), sc.spec)
		if err != nil {
			return fmt.Errorf("jobs %s: %w", sc.key, err)
		}
		a := res.Artifact(sc.artifact)
		if a == nil {
			return fmt.Errorf("jobs %s: no artifact %s", sc.key, sc.artifact)
		}
		refs["jobs"][sc.key] = artifactDigest(a.Data)
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func artifactDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}
