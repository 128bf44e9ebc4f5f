#include "core/model_io.h"

#include <gtest/gtest.h>

#include <fstream>

namespace mllibstar {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(ModelIoTest, RoundTripPreservesWeights) {
  GlmModel model(5);
  (*model.mutable_weights())[0] = 1.5;
  (*model.mutable_weights())[3] = -0.0625;
  const std::string path = TempPath("model_rt.txt");
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dim(), 5u);
  EXPECT_DOUBLE_EQ(loaded->weights()[0], 1.5);
  EXPECT_DOUBLE_EQ(loaded->weights()[1], 0.0);
  EXPECT_DOUBLE_EQ(loaded->weights()[3], -0.0625);
}

TEST(ModelIoTest, RoundTripIsBitExact) {
  GlmModel model(3);
  (*model.mutable_weights())[0] = 1.0 / 3.0;
  (*model.mutable_weights())[2] = -1e-17;
  const std::string path = TempPath("model_exact.txt");
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->weights()[0], 1.0 / 3.0);
  EXPECT_EQ(loaded->weights()[2], -1e-17);
}

TEST(ModelIoTest, ZeroWeightsAreSparseOnDisk) {
  GlmModel model(1000);
  (*model.mutable_weights())[7] = 1.0;
  const std::string path = TempPath("model_sparse.txt");
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // magic + dim + one weight
}

TEST(ModelIoTest, EmptyModelRoundTrips) {
  GlmModel model(4);
  const std::string path = TempPath("model_empty.txt");
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dim(), 4u);
  EXPECT_EQ(loaded->weights().CountNonZeros(), 0u);
}

TEST(ModelIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadModel("/no/such/model.txt").status().code(),
            StatusCode::kIoError);
}

TEST(ModelIoTest, WrongMagicRejected) {
  const std::string path = TempPath("model_badmagic.txt");
  std::ofstream(path) << "not-a-model v9\ndim 3\n";
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, OutOfRangeIndexRejected) {
  const std::string path = TempPath("model_oor.txt");
  std::ofstream(path) << "mllibstar-model v1\ndim 3\n5 1.0\n";
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kOutOfRange);
}

TEST(ModelIoTest, MalformedWeightLineRejected) {
  const std::string path = TempPath("model_badline.txt");
  std::ofstream(path) << "mllibstar-model v1\ndim 3\n1 2 3\n";
  EXPECT_FALSE(LoadModel(path).ok());
}

TEST(MulticlassIoTest, V1LoaderStillRejectsV2Files) {
  // The K-class v2 format is retired; a v2 file (here its literal
  // header and one weight) handed to LoadModel must fail loudly, not
  // truncate.
  const std::string path = TempPath("model_v2_for_v1.txt");
  std::ofstream(path) << "mllibstar-model v2\nclasses 2\ndim 3\n4 1.0\n";
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mllibstar
