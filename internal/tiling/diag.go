package tiling

import (
	"fmt"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Shared compile-time diagnostics. Analyze rejects an illegal tiling with
// these exact messages, and the static certifier (internal/verify)
// re-proves the same facts over an already-built TiledSpace with the same
// wording, so users see one diagnostic vocabulary whether the fact fails
// at analysis time or at certification time. Tests assert the exact text.

// ErrIllegalTransform is the legality failure H·D ≥ 0 (§2.1): some
// dependence crosses tiles against the tile execution order.
func ErrIllegalTransform() error {
	return fmt.Errorf("tiling: illegal transformation: H·D has negative entries (some dependence crosses tiles backwards)")
}

// ErrDependenceReach reports a transformed dependence component d'_k that
// exceeds the tile extent v_k, which would make data flow skip over a
// neighbouring tile (k is 0-based).
func ErrDependenceReach(reach, k, v int64) error {
	return fmt.Errorf("tiling: dependence reach %d exceeds tile extent v_%d = %d; enlarge the tile along dimension %d", reach, k+1, v, k+1)
}

// ErrTileDepRange reports a tile dependence component outside {0,1},
// which the §3.2 single-message-per-direction communication scheme cannot
// express (k is 0-based).
func ErrTileDepRange(d ilin.Vec, k int) error {
	return fmt.Errorf("tiling: tile dependence %v has component outside {0,1}; the tile is too small along dimension %d for the §3.2 communication scheme", d, k+1)
}

// ErrTileDepNotLexPositive reports a tile dependence that is not
// lexicographically positive, i.e. the tiled execution order would not be
// sequentially consistent.
func ErrTileDepNotLexPositive(d ilin.Vec) error {
	return fmt.Errorf("tiling: tile dependence %v is not lexicographically positive", d)
}

// OverflowError is Analyze's verdict on a nest or tiling whose exact
// arithmetic leaves int64 — a space too large, or a tile edge too fine, for
// the compiler's integer rationals. It wraps the rat.Overflow raised.
type OverflowError struct{ Overflow rat.Overflow }

func (e *OverflowError) Error() string {
	return fmt.Sprintf("tiling: the iteration space or the tiling is too large for exact int64 arithmetic (%v)", e.Overflow)
}

func (e *OverflowError) Unwrap() error { return e.Overflow }
