#include "core/loss.h"

namespace mllibstar {

std::string Loss::name() const {
  switch (kind_) {
    case LossKind::kLogistic:
      return "logistic";
    case LossKind::kSquared:
      return "squared";
    case LossKind::kHinge:
      break;
  }
  return "hinge";
}

Result<LossKind> LossKindFromName(const std::string& name) {
  if (name == "logistic") return LossKind::kLogistic;
  if (name == "hinge") return LossKind::kHinge;
  if (name == "squared") return LossKind::kSquared;
  return Status::InvalidArgument("unknown loss '" + name +
                                 "'; expected logistic|hinge|squared");
}

}  // namespace mllibstar
