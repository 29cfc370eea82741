//go:build unix && !purego

package mmapio

// mapsFiles: this build memory-maps non-empty files.
const mapsFiles = true
