// SweepStore — the persistent, resumable result cache for sweep grids.
//
// Production-scale sweep grids (every catalog test × every fault list × n up
// to 2^20) are too expensive to recompute per run.  The store persists each
// completed sweep point as it lands, so a re-run loads verified hits and
// recomputes only missing or invalid points — resumable partial grids.
//
// Key scheme: a record is identified by
//
//     (test_hash, list_hash, n, cap, engine_version)
//
// where test_hash/list_hash are the stable 64-bit hashes of the canonical
// serializations (march/march_test.hpp, fp/fault_list.hpp) — content
// identity, names excluded — n is the simulated memory size, cap the
// per-fault instance bound (a different cap samples different layouts, so
// it keys the result), and engine_version is kSweepStoreEngineVersion: bump
// it whenever engine semantics change and every old record silently becomes
// a miss (invalidation without migration).
//
// On-disk layout: one record file per key inside the store directory, named
// sweep-<hex of key hash>.rec.  A record is a fixed header (magic, format
// version, the full key, payload length, payload CRC-32, header CRC-32)
// followed by the serialized CoverageReport.  Updates follow the
// write-temp + sync + rename protocol, so a reader never observes a
// half-written record under POSIX rename atomicity; a crash mid-protocol
// leaves either the old record or a stray .tmp that is simply overwritten
// by the next save.
//
// Robustness ladder (never crash, never trust a bad record):
//
//  1. Checksum/version/key mismatches and short reads degrade to a miss:
//     the damaged file is removed (repair) and the caller recomputes and
//     rewrites the point.
//  2. Transient write failures retry with bounded backoff
//     (max_write_attempts × retry_backoff).
//  3. When retries are exhausted the store disables itself — store-less
//     operation with a warning — and the sweep continues computing;
//     results are byte-identical with or without a (failing) store.
//
// All methods are thread-safe (sweep points save from pool workers) and
// report by boolean + stats, never by exception: a broken store must not
// unwind a healthy computation.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "sim/coverage.hpp"
#include "store/storage.hpp"

namespace mtg {

/// Bump whenever simulation semantics change what a stored CoverageReport
/// would contain: every record written by older engines becomes a miss.
inline constexpr std::uint32_t kSweepStoreEngineVersion = 1;

/// stable_hash64 over the record bytes of a fixed grid of coverage reports
/// (tests/store/test_semantics_digest.cpp), pinned at engine version
/// kSweepStoreSemanticsDigestVersion.  The test fails when the reports move
/// while kSweepStoreEngineVersion does not; re-pin both after a bump.
inline constexpr std::uint64_t kSweepStoreSemanticsDigest =
    0xc5d94ddea2103f39ull;
inline constexpr std::uint32_t kSweepStoreSemanticsDigestVersion = 1;

/// Identity of one sweep point result (see the key scheme above).
struct SweepKey {
  std::uint64_t test_hash = 0;
  std::uint64_t list_hash = 0;
  std::uint64_t memory_size = 0;
  std::uint64_t max_instances_per_fault = 0;
  std::uint32_t engine_version = kSweepStoreEngineVersion;

  friend bool operator==(const SweepKey& a, const SweepKey& b) {
    return a.test_hash == b.test_hash && a.list_hash == b.list_hash &&
           a.memory_size == b.memory_size &&
           a.max_instances_per_fault == b.max_instances_per_fault &&
           a.engine_version == b.engine_version;
  }
};

/// Cumulative store observations — the numbers the resumability and
/// fault-injection tests assert on.
struct SweepStoreStats {
  std::uint64_t hits = 0;             ///< load() returned a verified record
  std::uint64_t misses = 0;           ///< load() found nothing usable
  std::uint64_t corrupt_records = 0;  ///< records rejected by checksum/format
  std::uint64_t key_mismatches = 0;   ///< filename-hash collision or stale key
  std::uint64_t saves = 0;            ///< save() completed the rename protocol
  std::uint64_t save_retries = 0;     ///< write attempts after the first
  std::uint64_t save_failures = 0;    ///< save() gave up after all attempts
  std::uint64_t read_errors = 0;      ///< read() I/O errors (treated as miss)
};

struct SweepStoreOptions {
  /// Write attempts per save before the store degrades to store-less
  /// operation (>= 1).  mtg_cli exposes this as --store-retries.
  int max_write_attempts = 3;
  /// Base backoff before the i-th retry; the actual delay is
  ///
  ///     retry_backoff * i + jitter,   jitter ~ uniform[0, retry_backoff)
  ///
  /// — bounded linear backoff with full-cycle jitter so concurrent writers
  /// hitting the same transient failure don't retry in lock-step.  The
  /// jitter scales with the base, so a zero backoff (the tests' setting)
  /// stays exactly zero.  mtg_cli exposes the base as --store-backoff-ms.
  std::chrono::milliseconds retry_backoff{10};
  /// Seed of the deterministic per-store jitter stream (splitmix64): equal
  /// seeds replay equal jitter sequences, which is how the ladder tests
  /// assert the bounds.
  std::uint64_t retry_jitter_seed = 0x9E3779B97F4A7C15ull;
  /// Test seam: when set, called with each computed backoff delay INSTEAD of
  /// sleeping — ladder tests observe the exact delays (base, jitter bound,
  /// determinism) without wall-clock waits.
  std::function<void(std::chrono::milliseconds)> on_backoff;
  /// Degradation warnings land here; defaults to stderr when empty.
  std::function<void(const std::string&)> warn;
};

class SweepStore {
 public:
  /// A store rooted at directory `root` on `storage`; `storage` must outlive
  /// the store.  Call open() before use.
  SweepStore(Storage& storage, std::string root, SweepStoreOptions options = {});

  /// Ensures the store directory exists.  On failure the store starts
  /// disabled (every load misses, every save no-ops) and a warning is
  /// emitted — the degradation ladder's final rung.
  bool open();

  /// False once the store has degraded to store-less operation.
  bool enabled() const;

  /// Loads and verifies the record for `key`.  True only when a record with
  /// a matching key and intact checksums was read; `out` then holds the
  /// cached report.  Damaged records are removed (repair) and count as a
  /// miss — the caller recomputes and save() rewrites them.
  bool load(const SweepKey& key, CoverageReport& out);

  /// Persists `report` under `key` via write-temp + sync + rename, retrying
  /// transient failures with bounded backoff.  False when every attempt
  /// failed — the store is then disabled and a warning emitted.
  bool save(const SweepKey& key, const CoverageReport& report);

  /// Removes the record for `key` (manual invalidation; tests use this to
  /// punch holes into a grid).  True when a record existed.
  bool remove(const SweepKey& key);

  /// Full path of the record file for `key` (the .tmp sibling appends
  /// ".tmp").  Exposed so tests can damage records in place.
  std::string record_path(const SweepKey& key) const;

  SweepStoreStats stats() const;

  // -- Record codec (exposed for white-box tests) -----------------------
  /// Serializes `key` + `report` into a checksummed record.
  static std::string encode_record(const SweepKey& key,
                                   const CoverageReport& report);
  /// Strict inverse: false on any truncation, checksum, version or format
  /// violation, or when the embedded key differs from `key`.  Never throws,
  /// never reads out of bounds — this is the line of defense against torn
  /// writes and bit rot.  `why` (optional) receives the first violation.
  static bool decode_record(std::string_view record, const SweepKey& key,
                            CoverageReport& out, std::string* why = nullptr);

 private:
  void warn_locked(const std::string& message);
  /// The backoff delay before retry attempt `attempt` (>= 2): linear base
  /// plus one deterministic jitter draw from the store's stream.
  std::chrono::milliseconds backoff_delay_locked(int attempt);

  Storage& storage_;
  const std::string root_;
  const SweepStoreOptions options_;
  mutable std::mutex mutex_;
  SweepStoreStats stats_;
  std::uint64_t jitter_state_;  ///< splitmix64 state (seeded from options)
  bool disabled_ = false;
  bool opened_ = false;
};

}  // namespace mtg
