#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "log/segment.hpp"

namespace rc::server {

/// Per-client duplicate-suppression state, RAMCloud's RIFL UnackedRpcResults
/// (docs/LINEARIZABILITY.md). Each master keeps one table; a tracked
/// mutating RPC is checked against it before execution and recorded after.
/// The recorded outcome is backed by a kCompletion log entry replicated in
/// the same append as the object, so the table can be rebuilt from the log
/// during crash recovery and carried along with tablet migration.
class UnackedRpcResults {
 public:
  /// Outcome a recorded completion replays to a duplicate retry.
  struct Result {
    std::uint8_t status = 0;       ///< net::Status the original reply carried
    std::uint64_t version = 0;     ///< object version the op produced/observed
    bool found = true;             ///< kRemove: object existed
    std::uint64_t tableId = 0;     ///< object identity (migration filtering)
    std::uint64_t keyId = 0;
    log::LogRef record;            ///< the backing kCompletion entry
  };

  /// The outcome a completion, prepare or decision record at `ref` stands
  /// for: what the master records after the op and what replay rebuilds.
  static Result resultOf(const log::LogEntry& record, log::LogRef ref) {
    return Result{record.opStatus, record.version, record.found,
                  record.tableId,  record.keyId,   ref};
  }

  enum class Check : std::uint8_t {
    kNew,         ///< never seen: execute and record
    kInProgress,  ///< first attempt still executing: caller should back off
    kCompleted,   ///< duplicate of a finished op: replay `result`
    kStale,       ///< below the client's own firstUnacked watermark
  };

  struct BeginResult {
    Check check = Check::kNew;
    Result result;  ///< valid when check == kCompleted
  };

  /// Admission check for a tracked RPC. Advances the client's watermark to
  /// `firstUnacked`, appending the log refs of any records that fall below
  /// it to `freed` (the caller marks them dead so the cleaner reclaims
  /// them). kNew marks the seq in-progress.
  BeginResult begin(std::uint64_t clientId, std::uint64_t seq,
                    std::uint64_t firstUnacked,
                    std::vector<log::LogRef>* freed);

  /// Record the outcome of a kNew op. Clears the in-progress mark.
  void recordCompletion(std::uint64_t clientId, std::uint64_t seq,
                        const Result& result);

  /// Drop the in-progress mark without recording (the op failed before a
  /// completion record could be logged; the retry will re-execute).
  void abortInProgress(std::uint64_t clientId, std::uint64_t seq);

  /// Install a completion recovered from the log (crash recovery replay or
  /// migration). Duplicates — the same (clientId, seq) seen from several
  /// replicas — are ignored. Returns true if newly installed.
  bool recover(std::uint64_t clientId, std::uint64_t seq,
               const Result& result);

  /// Drop every client whose lease is no longer valid, appending the freed
  /// record refs. Returns the number of clients reclaimed. The exactly-once
  /// guarantee is intentionally lost past lease expiry.
  std::size_t reclaimExpired(
      const std::function<bool(std::uint64_t)>& leaseValid,
      std::vector<log::LogRef>* freed);

  /// Migration: collect every retained completion whose object falls in
  /// [startHash, endHash] of `tableId` (hash computed by the caller via
  /// `inRange`).
  struct Retained {
    std::uint64_t clientId = 0;
    std::uint64_t seq = 0;
    Result result;
  };
  std::vector<Retained> collectForRange(
      const std::function<bool(std::uint64_t, std::uint64_t)>& inRange) const;

  /// Migration source: drop the collected completions after a successful
  /// handoff (their records' refs go to `freed`).
  void eraseForRange(
      const std::function<bool(std::uint64_t, std::uint64_t)>& inRange,
      std::vector<log::LogRef>* freed);

  /// Cleaner relocation callback: the backing kCompletion entry moved.
  void updateRecordRef(std::uint64_t clientId, std::uint64_t seq,
                       const log::LogRef& newRef);

  void clear() { clients_.clear(); }

  std::size_t trackedClients() const { return clients_.size(); }
  std::uint64_t duplicatesSuppressed() const { return duplicatesSuppressed_; }
  std::uint64_t completionsRecorded() const { return completionsRecorded_; }
  std::uint64_t recordsRecovered() const { return recordsRecovered_; }
  std::uint64_t recordsGced() const { return recordsGced_; }
  std::uint64_t clientsExpired() const { return clientsExpired_; }
  std::uint64_t staleRejected() const { return staleRejected_; }

 private:
  struct ClientState {
    std::uint64_t firstUnacked = 1;
    /// Ordered so watermark GC walks the prefix below firstUnacked.
    std::map<std::uint64_t, Result> results;
    std::map<std::uint64_t, bool> inProgress;
  };

  void advanceWatermark(ClientState& st, std::uint64_t firstUnacked,
                        std::vector<log::LogRef>* freed);

  std::unordered_map<std::uint64_t, ClientState> clients_;
  std::uint64_t duplicatesSuppressed_ = 0;
  std::uint64_t completionsRecorded_ = 0;
  std::uint64_t recordsRecovered_ = 0;
  std::uint64_t recordsGced_ = 0;
  std::uint64_t clientsExpired_ = 0;
  std::uint64_t staleRejected_ = 0;
};

}  // namespace rc::server
