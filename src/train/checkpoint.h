#ifndef MLLIBSTAR_TRAIN_CHECKPOINT_H_
#define MLLIBSTAR_TRAIN_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/vector.h"

namespace mllibstar {

class SparkCluster;

/// When and where a trainer snapshots its state.
struct CheckpointConfig {
  /// Snapshot file. Empty disables checkpointing entirely.
  std::string path;
  /// Snapshot after every N completed communication steps (0 = never
  /// write, which still allows resuming from an existing file).
  int every_steps = 0;
  /// Load `path` before training and continue from it. Starting fresh
  /// when the file does not exist yet lets one flag serve both the
  /// first run and every restart.
  bool resume = false;

  bool enabled() const { return !path.empty(); }
};

/// A flat, typed word store for trainer snapshots. Everything —
/// iteration counters, RNG cursors, model weights — serializes to
/// uint64 words; doubles travel as raw bit patterns, so a write/read
/// round trip is bit-exact and Resume() reproduces the uninterrupted
/// run's weights EXACTLY (EXPECT_EQ, not EXPECT_NEAR). Writers append
/// in a fixed order; readers consume in the same order through a
/// cursor.
class Checkpoint {
 public:
  // -- Writing --------------------------------------------------------
  void PutU64(uint64_t v) { words_.push_back(v); }
  void PutDouble(double v);
  void PutDoubles(const std::vector<double>& values);
  void PutVector(const DenseVector& v);
  void PutRngState(const std::array<uint64_t, Rng::kStateWords>& state);

  // -- Reading (in write order) ---------------------------------------
  uint64_t TakeU64();
  double TakeDouble();
  std::vector<double> TakeDoubles();
  DenseVector TakeVector();
  std::array<uint64_t, Rng::kStateWords> TakeRngState();

  /// True once every word has been consumed (a resume that does not
  /// drain the file exactly indicates a format mismatch).
  bool exhausted() const { return cursor_ == words_.size(); }
  size_t size_words() const { return words_.size(); }

  // -- Persistence ----------------------------------------------------
  /// Writes atomically: the snapshot lands in `path + ".tmp"` first and
  /// is renamed over `path`, so a crash mid-write never corrupts the
  /// previous checkpoint.
  Status WriteFile(const std::string& path) const;

  /// Replaces this checkpoint's contents with the file (resets the
  /// read cursor). Fails on missing file, bad magic, or truncation.
  Status ReadFile(const std::string& path);

  /// True when `path` exists and carries the checkpoint magic.
  static bool Exists(const std::string& path);

 private:
  std::vector<uint64_t> words_;
  size_t cursor_ = 0;
};

/// First word of every trainer snapshot: which trainer family wrote it
/// (resuming a Petuum run from an MLlib checkpoint is a bug, not a
/// format guess). The second word is reserved and always 0; it held
/// the class count while the trainers also ran a softmax objective,
/// and stays so the snapshot layout does not change. A second reserved
/// 0 word, just before the elastic (Spark) or membership (PS) block,
/// held the error-feedback residual count while lossy wire codecs
/// existed, and stays for the same reason.
enum class CheckpointTag : uint64_t {
  kMllib = 1,
  kMllibMa = 2,
  kMllibStar = 3,
  kPs = 4,
  kLbfgs = 5,
};

/// True when the trainer should snapshot after completing `step`.
bool ShouldCheckpoint(const CheckpointConfig& config, int step);

/// Loads `config.path` into *ck when resume is requested and the file
/// exists; returns whether it did. A missing file means "first run".
bool TryResume(const CheckpointConfig& config, Checkpoint* ck);

/// Serializes the k per-worker RNG cursors / restores them in place
/// (rngs->size() must match what was saved).
void PutWorkerRngs(Checkpoint* ck, const std::vector<Rng>& rngs);
void TakeWorkerRngs(Checkpoint* ck, std::vector<Rng>* rngs);

/// Serializes a Spark engine's elastic state (fired churn events,
/// partition hosting, pending rebuilds) as a length-prefixed word block
/// / restores it, so a resumed run continues exactly where it was.
void PutElasticWords(Checkpoint* ck, const SparkCluster& spark);
void TakeElasticWords(Checkpoint* ck, SparkCluster* spark);

}  // namespace mllibstar

#endif  // MLLIBSTAR_TRAIN_CHECKPOINT_H_
