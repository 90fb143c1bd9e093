#include "align/scoring.hpp"

// ScoreParams and ScoreMatrix are header-only; this TU compiles the header
// on its own as part of mm_align, so it stays self-contained.
namespace manymap {}
