//go:build !unix || purego

package mmapio

// mapsFiles: this build reads every file onto the heap.
const mapsFiles = false
