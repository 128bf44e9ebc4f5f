#ifndef MLLIBSTAR_CORE_MODEL_IO_H_
#define MLLIBSTAR_CORE_MODEL_IO_H_

#include <string>

#include "common/status.h"
#include "core/model.h"

namespace mllibstar {

/// Saves a GLM model as versioned text:
///   mllibstar-model v1
///   dim <d>
///   <index> <value>        (one line per nonzero weight)
/// Sparse on disk: zero weights are omitted.
Status SaveModel(const GlmModel& model, const std::string& path);

/// Loads a model saved by SaveModel. Rejects wrong magic/version,
/// malformed lines, and out-of-range indices.
Result<GlmModel> LoadModel(const std::string& path);

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_MODEL_IO_H_
