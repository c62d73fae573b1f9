//go:build race

package nn

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random quarter of Puts by design, so pooled scratch is reallocated and
// allocation gates cannot hold.
const raceEnabled = true
