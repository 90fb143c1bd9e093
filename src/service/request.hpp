// Request/response types of the alignment service. A MapRequest is one
// read plus per-request scheduling hints (deadline); a MapResponse carries
// the mappings, rendered PAF text, and per-stage/queueing timings so
// clients and the metrics layer see where time went.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "core/mapper.hpp"

namespace manymap {

/// Terminal state of a request. Every submitted request resolves exactly
/// once with one of these — worker exceptions become kFailed responses,
/// never broken promises.
enum class RequestStatus {
  kOk,            ///< mapped (possibly to zero locations) and answered
  kRejected,      ///< admission control: ingress queue was full
  kTimedOut,      ///< deadline expired before or during compute
  kFailed,        ///< worker error (exception, injected fault, stalled worker)
  /// Retriable: the service is up but its index is still loading (async
  /// warm-up). Clients should resubmit after a short delay; the request
  /// was admitted and answered, not dropped.
  kIndexWarming,
};

constexpr std::size_t kRequestStatusCount = 5;

const char* to_string(RequestStatus s);

/// Which rung of the memory/degradation ladder served a kOk response.
/// Ordered: each level strictly cheaper in resident memory than the last.
enum class DegradeLevel {
  kNone,          ///< fully resident direction bytes (normal path)
  kStreamedDirs,  ///< dirs streamed block-by-block through a spill sink
  kScoreOnly,     ///< no CIGAR pass at all (breaker open or footprint cap)
};

const char* to_string(DegradeLevel d);

struct MapRequest {
  u64 id = 0;      ///< caller-chosen; echoed back in the response
  Sequence read;
  /// Absolute deadline. A request still queued past its deadline is
  /// answered kTimedOut without being aligned (never blocks unboundedly).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

struct MapResponse {
  u64 id = 0;
  RequestStatus status = RequestStatus::kOk;
  std::vector<Mapping> mappings;  ///< best-first, as Mapper::map returns
  std::string paf;                ///< PAF lines for the mappings
  MapTimings timings;             ///< seed/chain/align stage breakdown
  double queue_ms = 0.0;          ///< submit -> compute start (or verdict); the sum of:
  double batch_wait_ms = 0.0;     ///<   submit -> batch handed off by the scheduler
  double shard_wait_ms = 0.0;     ///<   hand-off -> compute start (shard queue)
  double compute_ms = 0.0;        ///< Mapper::map wall time
  u32 shard = 0;                  ///< worker shard that served the request
  u64 batch_id = 0;               ///< compute batch the request rode in
  u32 batch_size = 0;             ///< size of that batch
  std::string error;              ///< what went wrong (kFailed only)
  bool degraded = false;          ///< served score-only by the circuit breaker
  /// Memory-ladder rung that served the request (structured status for
  /// over-budget degradation; `degraded` stays breaker-specific).
  DegradeLevel degrade = DegradeLevel::kNone;
  u64 est_dirs_bytes = 0;         ///< admission-time dirs footprint estimate
  /// True when at least one DP segment of this request ran its score pass
  /// on the simulated device (the placement policy offloaded the batch and
  /// the launch succeeded). Results are bit-identical either way.
  bool on_device = false;
};

}  // namespace manymap
