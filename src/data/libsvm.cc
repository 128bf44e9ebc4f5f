#include "data/libsvm.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/strings.h"

namespace mllibstar {

Result<Dataset> ReadLibSvm(const std::string& path, size_t num_features) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open: " + path);
  }

  std::vector<DataPoint> raw_points;
  FeatureIndex max_index = 0;
  bool saw_zero_index = false;

  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    DataPoint point;
    bool first_token = true;
    for (std::string_view token : StrSplit(trimmed, ' ')) {
      token = StrTrim(token);
      if (token.empty()) continue;
      if (first_token) {
        MLLIBSTAR_ASSIGN_OR_RETURN(double label, ParseDouble(token));
        if (!std::isfinite(label)) {
          return Status::InvalidArgument("line " +
                                         std::to_string(line_number) +
                                         ": non-finite label");
        }
        // Normalize {0,1} labels to {-1,+1}.
        point.label = (label == 0.0) ? -1.0 : (label > 0.0 ? 1.0 : -1.0);
        first_token = false;
        continue;
      }
      const size_t colon = token.find(':');
      if (colon == std::string_view::npos) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": expected idx:val, got '" +
                                       std::string(token) + "'");
      }
      MLLIBSTAR_ASSIGN_OR_RETURN(int64_t index,
                                 ParseInt64(token.substr(0, colon)));
      MLLIBSTAR_ASSIGN_OR_RETURN(double value,
                                 ParseDouble(token.substr(colon + 1)));
      if (index < 0) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": negative feature index");
      }
      if (static_cast<uint64_t>(index) >
          std::numeric_limits<FeatureIndex>::max()) {
        return Status::OutOfRange("line " + std::to_string(line_number) +
                                  ": feature index " + std::to_string(index) +
                                  " does not fit a 32-bit FeatureIndex");
      }
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": non-finite feature value");
      }
      if (index == 0) saw_zero_index = true;
      point.features.Push(static_cast<FeatureIndex>(index), value);
      max_index = std::max(max_index, static_cast<FeatureIndex>(index));
    }
    if (first_token) continue;  // label-only blank remainder
    raw_points.push_back(std::move(point));
  }

  // LIBSVM files are conventionally 1-based; shift down unless a zero
  // index was seen (then the file is already 0-based).
  const FeatureIndex shift = saw_zero_index ? 0 : 1;
  size_t dim = static_cast<size_t>(max_index) + 1 - shift;
  dim = std::max(dim, num_features);
  Dataset dataset(dim, path);
  for (DataPoint& p : raw_points) {
    if (shift != 0) {
      for (FeatureIndex& idx : p.features.indices) idx -= shift;
    }
    if (!p.features.IsSorted()) {
      return Status::InvalidArgument("unsorted feature indices in " + path);
    }
    dataset.Add(std::move(p));
  }
  return dataset;
}

Status WriteLibSvm(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  for (const DataPoint& p : dataset.points()) {
    out << (p.label > 0 ? "+1" : "-1");
    for (size_t i = 0; i < p.nnz(); ++i) {
      out << ' ' << (p.features.indices[i] + 1) << ':'
          << FormatDouble(p.features.values[i]);
    }
    out << '\n';
  }
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace mllibstar
