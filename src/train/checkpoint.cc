#include "train/checkpoint.h"

#include <bit>
#include <cstdio>
#include <fstream>

#include "common/fnv1a.h"
#include "common/logging.h"
#include "engine/spark_cluster.h"
#include "obs/engine_profiler.h"

namespace mllibstar {
namespace {

// "MLCKPT1\0" as a little-endian word.
constexpr uint64_t kMagic = 0x0031545048434c4dULL;

uint64_t Fnv1a(const std::vector<uint64_t>& words) {
  uint64_t h = kFnv1aBasis;
  for (uint64_t w : words) Fnv1aMix(w, &h);
  return h;
}

}  // namespace

void Checkpoint::PutDouble(double v) {
  words_.push_back(std::bit_cast<uint64_t>(v));
}

void Checkpoint::PutDoubles(const std::vector<double>& values) {
  PutU64(values.size());
  for (double v : values) PutDouble(v);
}

void Checkpoint::PutVector(const DenseVector& v) {
  PutDoubles(v.values());
}

void Checkpoint::PutWords(const std::vector<uint64_t>& words) {
  PutU64(words.size());
  words_.insert(words_.end(), words.begin(), words.end());
}

void Checkpoint::PutRngState(
    const std::array<uint64_t, Rng::kStateWords>& state) {
  for (uint64_t w : state) PutU64(w);
}

uint64_t Checkpoint::TakeU64() {
  MLLIBSTAR_CHECK_LT(cursor_, words_.size());
  return words_[cursor_++];
}

double Checkpoint::TakeDouble() { return std::bit_cast<double>(TakeU64()); }

size_t Checkpoint::TakeLength() {
  const uint64_t n = TakeU64();
  // A difference, not cursor_ + n <= size: that sum wraps for a length
  // word near 2^64 and would let it size a vector.
  MLLIBSTAR_CHECK_LE(n, words_.size() - cursor_)
      << "a length word runs past the checkpoint's words";
  return static_cast<size_t>(n);
}

std::vector<double> Checkpoint::TakeDoubles() {
  std::vector<double> values(TakeLength());
  for (double& v : values) v = TakeDouble();
  return values;
}

DenseVector Checkpoint::TakeVector() { return DenseVector(TakeDoubles()); }

std::vector<uint64_t> Checkpoint::TakeWords() {
  const size_t n = TakeLength();
  const auto begin = words_.begin() + static_cast<std::ptrdiff_t>(cursor_);
  cursor_ += n;
  return std::vector<uint64_t>(begin, begin + static_cast<std::ptrdiff_t>(n));
}

std::array<uint64_t, Rng::kStateWords> Checkpoint::TakeRngState() {
  std::array<uint64_t, Rng::kStateWords> state = {};
  for (uint64_t& w : state) w = TakeU64();
  return state;
}

Status Checkpoint::WriteFile(const std::string& path) const {
  EngineProfiler::Scope ckpt_prof(Subsystem::kCheckpoint);
  EngineProfiler::Get().AddEvents(Subsystem::kCheckpoint, 1);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out.is_open()) return Status::IoError("cannot open: " + tmp);
    std::vector<uint64_t> header = {kMagic, words_.size(), Fnv1a(words_)};
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size() * sizeof(uint64_t)));
    if (!words_.empty()) {
      out.write(
          reinterpret_cast<const char*>(words_.data()),
          static_cast<std::streamsize>(words_.size() * sizeof(uint64_t)));
    }
    if (!out.good()) return Status::IoError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

Status Checkpoint::ReadFile(const std::string& path) {
  EngineProfiler::Scope ckpt_prof(Subsystem::kCheckpoint);
  EngineProfiler::Get().AddEvents(Subsystem::kCheckpoint, 1);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("no checkpoint at: " + path);
  uint64_t header[3] = {};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in.good() || header[0] != kMagic) {
    return Status::IoError("bad checkpoint header: " + path);
  }
  // The word count must fit the bytes behind the header before it may
  // size an allocation.
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff body_bytes = in.tellg() - body;
  in.seekg(body);
  if (!in.good() || header[1] > static_cast<uint64_t>(body_bytes) /
                                    sizeof(uint64_t)) {
    return Status::IoError("checkpoint word count exceeds file: " + path);
  }
  std::vector<uint64_t> words(header[1]);
  if (!words.empty()) {
    in.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
  }
  if (!in.good() || Fnv1a(words) != header[2]) {
    return Status::IoError("corrupt checkpoint: " + path);
  }
  words_ = std::move(words);
  cursor_ = 0;
  return Status::Ok();
}

bool Checkpoint::Exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.good() && magic == kMagic;
}

bool ShouldCheckpoint(const CheckpointConfig& config, int step) {
  return config.enabled() && config.every_steps > 0 &&
         step % config.every_steps == 0;
}

bool TryResume(const CheckpointConfig& config, Checkpoint* ck) {
  if (!config.enabled() || !config.resume) return false;
  if (!Checkpoint::Exists(config.path)) return false;
  MLLIBSTAR_CHECK_OK(ck->ReadFile(config.path));
  return true;
}

void PutWorkerRngs(Checkpoint* ck, const std::vector<Rng>& rngs) {
  ck->PutU64(rngs.size());
  for (const Rng& rng : rngs) ck->PutRngState(rng.SaveState());
}

void TakeWorkerRngs(Checkpoint* ck, std::vector<Rng>* rngs) {
  MLLIBSTAR_CHECK_EQ(ck->TakeU64(), rngs->size());
  for (Rng& rng : *rngs) rng.RestoreState(ck->TakeRngState());
}

void PutElasticWords(Checkpoint* ck, const SparkCluster& spark) {
  ck->PutWords(spark.SaveElasticWords());
}

void TakeElasticWords(Checkpoint* ck, SparkCluster* spark) {
  spark->RestoreElasticWords(ck->TakeWords());
}

}  // namespace mllibstar
