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

  // Rows are packed as read; the index base is known only at the end.
  CsrBlock rows;
  std::vector<FeatureIndex> indices;  // the current line's entries
  std::vector<double> values;
  FeatureIndex max_index = 0;
  bool saw_zero_index = false;

  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    double label = 0.0;
    indices.clear();
    values.clear();
    bool first_token = true;
    for (std::string_view token : StrSplit(trimmed, ' ')) {
      token = StrTrim(token);
      if (token.empty()) continue;
      if (first_token) {
        MLLIBSTAR_ASSIGN_OR_RETURN(double raw, ParseDouble(token));
        if (!std::isfinite(raw)) {
          return Status::InvalidArgument("line " +
                                         std::to_string(line_number) +
                                         ": non-finite label");
        }
        // Normalize {0,1} labels to {-1,+1}.
        label = (raw == 0.0) ? -1.0 : (raw > 0.0 ? 1.0 : -1.0);
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
      indices.push_back(static_cast<FeatureIndex>(index));
      values.push_back(value);
      max_index = std::max(max_index, static_cast<FeatureIndex>(index));
    }
    if (first_token) continue;  // label-only blank remainder
    rows.AppendRow(indices.data(), values.data(), indices.size(), label);
  }

  // LIBSVM files are conventionally 1-based; shift down unless a zero
  // index was seen (then the file is already 0-based).
  const FeatureIndex shift = saw_zero_index ? 0 : 1;
  for (FeatureIndex& idx : rows.indices) idx -= shift;
  for (size_t i = 0; i < rows.rows(); ++i) {
    const FeatureIndex* row = rows.row_indices(i);
    for (size_t j = 1; j < rows.row_nnz(i); ++j) {
      if (row[j] <= row[j - 1]) {
        return Status::InvalidArgument("unsorted feature indices in " + path);
      }
    }
  }
  size_t dim = static_cast<size_t>(max_index) + 1 - shift;
  dim = std::max(dim, num_features);
  return Dataset(dim, path, std::move(rows));
}

Status WriteLibSvm(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const CsrBlock& rows = dataset.rows();
  for (size_t i = 0; i < rows.rows(); ++i) {
    out << (rows.label(i) > 0 ? "+1" : "-1");
    const FeatureIndex* indices = rows.row_indices(i);
    const double* values = rows.row_values(i);
    for (size_t j = 0; j < rows.row_nnz(i); ++j) {
      out << ' ' << (indices[j] + 1) << ':' << FormatDouble(values[j]);
    }
    out << '\n';
  }
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace mllibstar
