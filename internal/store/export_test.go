package store

import (
	"os"
	"path/filepath"
)

// WriteFormat1 writes key's entry e into the store directory dir as the
// format-1 file earlier versions' Put wrote, under the name Put uses.
func WriteFormat1(dir, key string, e Entry) error {
	b, err := encodeEnvelopeV1(key, e)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fileName(key)), b, 0o644)
}
