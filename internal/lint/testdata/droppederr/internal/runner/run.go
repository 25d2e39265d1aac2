// Package runner is the droppederr fixture's runner: a swallowed error
// here means a failed simulation silently folds into the figures.
package runner

import "os"

// Flush drops a write error.
func Flush(path string, data []byte) {
	os.WriteFile(path, data, 0o644) // want: discarded error
}

// cleanup is off the droppederr scope's allowlist but handled correctly.
func cleanup(path string) error {
	return os.Remove(path)
}

var _ = cleanup
