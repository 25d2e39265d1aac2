// Package core is a droppederr-pass fixture outside the CLIs and the
// serving layers: the pass runs module-wide, so a model package that drops
// an error is flagged too.
package core

import "os"

// Dump writes a snapshot and drops the error from closing the file.
func Dump(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	f.Close() // want: discarded error
	return nil
}
