#include "core/model_io.h"

#include <fstream>

#include "common/strings.h"

namespace mllibstar {

namespace {
constexpr char kMagic[] = "mllibstar-model v1";

// Reads the sparse "<index> <value>" lines into a vector of
// `expected_dim`. `line_number` continues the caller's header count
// for error messages.
Result<DenseVector> LoadWeightLines(std::ifstream& in,
                                    const std::string& path,
                                    int64_t expected_dim,
                                    size_t line_number) {
  DenseVector w(static_cast<size_t>(expected_dim));
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = StrTrim(line);
    if (trimmed.empty()) continue;
    const auto fields = StrSplit(trimmed, ' ');
    if (fields.size() != 2) {
      return Status::InvalidArgument("bad weight line " +
                                     std::to_string(line_number) + " in " +
                                     path);
    }
    MLLIBSTAR_ASSIGN_OR_RETURN(int64_t index, ParseInt64(fields[0]));
    MLLIBSTAR_ASSIGN_OR_RETURN(double value, ParseDouble(fields[1]));
    if (index < 0 || index >= expected_dim) {
      return Status::OutOfRange("weight index " + std::to_string(index) +
                                " outside dim " +
                                std::to_string(expected_dim));
    }
    w[static_cast<size_t>(index)] = value;
  }
  return w;
}

// Reads a "<key> <non-negative int>" header line.
Result<int64_t> LoadHeaderCount(std::ifstream& in, const std::string& path,
                                const std::string& key) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("missing " + key + " line in " + path);
  }
  const auto fields = StrSplit(StrTrim(line), ' ');
  if (fields.size() != 2 || fields[0] != key) {
    return Status::InvalidArgument("bad " + key + " line in " + path);
  }
  MLLIBSTAR_ASSIGN_OR_RETURN(int64_t count, ParseInt64(fields[1]));
  if (count < 0) {
    return Status::InvalidArgument("negative " + key + " in " + path);
  }
  return count;
}

}  // namespace

Status SaveModel(const GlmModel& model, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << kMagic << '\n';
  out << "dim " << model.dim() << '\n';
  out.precision(17);
  const DenseVector& w = model.weights();
  for (size_t i = 0; i < w.dim(); ++i) {
    if (w[i] != 0.0) out << i << ' ' << w[i] << '\n';
  }
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<GlmModel> LoadModel(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open: " + path);
  }
  std::string line;
  if (!std::getline(in, line) || StrTrim(line) != kMagic) {
    return Status::InvalidArgument("bad model header in " + path);
  }
  MLLIBSTAR_ASSIGN_OR_RETURN(int64_t dim, LoadHeaderCount(in, path, "dim"));
  MLLIBSTAR_ASSIGN_OR_RETURN(DenseVector w,
                             LoadWeightLines(in, path, dim, 2));
  return GlmModel(std::move(w));
}

}  // namespace mllibstar
