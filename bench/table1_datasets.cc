// Table I: dataset statistics. Regenerates the paper's table for the
// synthetic equivalents (1/1000 scale; paper-scale numbers shown for
// reference).
#include <cstdio>

#include "common/strings.h"
#include "data/synthetic.h"

int main() {
  using namespace mllibstar;

  struct PaperRow {
    const char* name;
    uint64_t instances;
    uint64_t features;
    const char* size;
  };
  const PaperRow paper[] = {
      {"avazu", 40428967, 1000000, "7.4GB"},
      {"url", 2396130, 3231961, "2.1GB"},
      {"kddb", 19264097, 29890095, "4.8GB"},
      {"kdd12", 149639105, 54686452, "21GB"},
      {"wx", 231937380, 51121518, "434GB"},
  };

  std::printf("TABLE I — dataset statistics (synthetic, 1/1000 scale)\n\n");
  std::printf("%-8s %12s %12s %10s %8s %15s %16s\n", "dataset",
              "#instances", "#features", "size", "nnz/row", "shape",
              "paper(#inst/#feat)");
  for (const PaperRow& row : paper) {
    const Dataset ds = GenerateSynthetic(SpecByName(row.name).value());
    const DatasetStats stats = ds.Stats();
    std::printf("%-8s %12zu %12zu %10s %8.1f %15s %10llu/%llu\n",
                stats.name.c_str(), stats.num_instances, stats.num_features,
                HumanBytes(stats.approx_bytes).c_str(),
                stats.avg_nnz_per_row,
                stats.underdetermined ? "underdetermined" : "determined",
                static_cast<unsigned long long>(row.instances),
                static_cast<unsigned long long>(row.features));
  }
  std::printf(
      "\nShape properties preserved from the paper: avazu/kdd12/wx are "
      "determined (n >> d), url/kddb are underdetermined (d > n).\n");
  return 0;
}
