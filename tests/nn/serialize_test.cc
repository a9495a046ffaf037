#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "fuzz.h"
#include "gtest/gtest.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "temp_path.h"

namespace stsm {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Writes a v2 header declaring one tensor of `dims` with dtype `tag`,
  // followed by `payload_bytes` zero bytes.
  void WriteHeader(const std::vector<int64_t>& dims, uint32_t tag,
                   size_t payload_bytes) {
    std::ofstream out(path_, std::ios::binary);
    out.write("STSMTNSR", 8);
    const uint32_t version = 2, count = 1;
    const uint32_t ndim = static_cast<uint32_t>(dims.size());
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    out.write(reinterpret_cast<const char*>(dims.data()),
              static_cast<std::streamsize>(dims.size() * sizeof(int64_t)));
    out.write(reinterpret_cast<const char*>(&tag), sizeof(tag));
    const std::vector<char> payload(payload_bytes, 0);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }

  const std::string path_ = TempPath("stsm_serialize_test.bin");
};

TEST_F(SerializeTest, TensorRoundTrip) {
  Rng rng(1);
  const std::vector<Tensor> tensors = {
      Tensor::Uniform(Shape({3, 4}), -1, 1, &rng),
      Tensor::Scalar(42.0f),
      Tensor::Uniform(Shape({2, 2, 2}), -5, 5, &rng),
  };
  ASSERT_TRUE(SaveTensors(tensors, path_));
  const std::vector<Tensor> loaded = LoadTensors(path_);
  ASSERT_EQ(loaded.size(), tensors.size());
  for (size_t t = 0; t < tensors.size(); ++t) {
    ASSERT_EQ(loaded[t].shape(), tensors[t].shape());
    for (int64_t i = 0; i < tensors[t].numel(); ++i) {
      EXPECT_FLOAT_EQ(loaded[t].data()[i], tensors[t].data()[i]);
    }
  }
}

TEST_F(SerializeTest, MissingFileReturnsEmpty) {
  EXPECT_TRUE(LoadTensors(TempPath("stsm_no_such_file.bin")).empty());
}

TEST_F(SerializeTest, CorruptMagicRejected) {
  std::ofstream out(path_, std::ios::binary);
  out << "NOTVALIDDATA";
  out.close();
  EXPECT_TRUE(LoadTensors(path_).empty());
}

TEST_F(SerializeTest, TruncatedFileRejected) {
  Rng rng(2);
  ASSERT_TRUE(SaveTensors({Tensor::Uniform(Shape({10, 10}), -1, 1, &rng)},
                          path_));
  // Truncate to half the size.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<char> half(static_cast<size_t>(size) / 2);
  in.read(half.data(), half.size());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(half.data(), half.size());
  out.close();
  EXPECT_TRUE(LoadTensors(path_).empty());
}

TEST_F(SerializeTest, TrailingBytesRejected) {
  // Regression: a checkpoint with extra bytes after the declared tensor
  // payload (concatenated files, partial overwrite) must not load silently.
  Rng rng(4);
  ASSERT_TRUE(
      SaveTensors({Tensor::Uniform(Shape({3, 3}), -1, 1, &rng)}, path_));
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "junk";
  }
  EXPECT_TRUE(LoadTensors(path_).empty());

  Linear module(3, 3, &rng);
  ASSERT_TRUE(SaveModule(module, path_));
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const char zero = '\0';  // Even a single trailing byte is rejected.
    out.write(&zero, 1);
  }
  const float before = module.Parameters()[0].data()[0];
  EXPECT_FALSE(LoadModule(&module, path_));
  EXPECT_FLOAT_EQ(module.Parameters()[0].data()[0], before);
}

TEST_F(SerializeTest, LegacyV1CheckpointLoadsAsF32) {
  // Hand-written v1 file: no dtype tag between dims and payload. Old
  // checkpoints in the wild must keep loading, as fp32 by definition.
  const float values[3] = {1.5f, -2.25f, 0.125f};
  {
    std::ofstream out(path_, std::ios::binary);
    out.write("STSMTNSR", 8);
    const uint32_t version = 1, count = 1, ndim = 1;
    const int64_t dim = 3;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(values), sizeof(values));
  }
  const std::vector<Tensor> loaded = LoadTensors(path_);
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].shape(), Shape({3}));
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(loaded[0].data()[i], values[i]);
  }
}

TEST_F(SerializeTest, UnknownDtypeTagRejectedLoudly) {
  // A tag this reader does not know must be a hard failure with a
  // diagnostic — never a silent fp32 reinterpretation of the payload.
  WriteHeader({2}, /*tag=*/7, 2 * sizeof(float));
  testing::internal::CaptureStderr();
  const std::vector<Tensor> loaded = LoadTensors(path_);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(loaded.empty());
  EXPECT_NE(err.find("unknown dtype tag 7"), std::string::npos) << err;
}

TEST_F(SerializeTest, Bf16TagRejectedLoudly) {
  // Tag 1 was bf16, whose support was removed: its checkpoints fail the same
  // loud way as any unknown tag, whether the payload is sized for 2-byte or
  // 4-byte elements.
  for (const size_t element_bytes : {size_t{2}, sizeof(float)}) {
    WriteHeader({3}, /*tag=*/1, 3 * element_bytes);
    testing::internal::CaptureStderr();
    const std::vector<Tensor> loaded = LoadTensors(path_);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(loaded.empty());
    EXPECT_NE(err.find("unknown dtype tag 1"), std::string::npos) << err;
  }
}

TEST_F(SerializeTest, HeaderDeclaringMorePayloadThanTheFileIsRejected) {
  // A crafted header sizes the allocation before any payload is read, so
  // it is checked against the bytes left in the file first: neither of
  // these may allocate (or abort), in any build.
  WriteHeader({int64_t{1} << 40}, /*tag=*/0, 16);
  EXPECT_TRUE(LoadTensors(path_).empty());
  WriteHeader({int64_t{1} << 31, int64_t{1} << 31}, /*tag=*/0, 16);
  EXPECT_TRUE(LoadTensors(path_).empty());
  // numel overflowing int64 is rejected too, and so are strides that
  // overflow behind a zero dim.
  WriteHeader({int64_t{1} << 62, int64_t{1} << 62}, /*tag=*/0, 16);
  EXPECT_TRUE(LoadTensors(path_).empty());
  WriteHeader({0, int64_t{1} << 62, int64_t{1} << 62}, /*tag=*/0, 0);
  EXPECT_TRUE(LoadTensors(path_).empty());
  // One float short of the declared payload.
  WriteHeader({4}, /*tag=*/0, 3 * sizeof(float));
  EXPECT_TRUE(LoadTensors(path_).empty());
  // The exact payload loads.
  WriteHeader({4}, /*tag=*/0, 4 * sizeof(float));
  ASSERT_EQ(LoadTensors(path_).size(), 1u);
}

TEST_F(SerializeTest, SaveReplacesTheFileAndLeavesNoTempFile) {
  // SaveTensors writes a temp file and renames it into place, so a reader
  // only ever sees a complete checkpoint.
  Rng rng(14);
  const Tensor first = Tensor::Uniform(Shape({2, 3}), -1, 1, &rng);
  const Tensor second = Tensor::Uniform(Shape({5}), -1, 1, &rng);
  ASSERT_TRUE(SaveTensors({first}, path_));
  ASSERT_TRUE(SaveTensors({second}, path_));
  const std::vector<Tensor> loaded = LoadTensors(path_);
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].shape(), second.shape());
  for (int64_t i = 0; i < second.numel(); ++i) {
    EXPECT_EQ(loaded[0].data()[i], second.data()[i]);
  }
  const std::filesystem::path file(path_);
  for (const auto& entry :
       std::filesystem::directory_iterator(file.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(
                  file.filename().string() + ".tmp.", 0),
              0u)
        << "left behind: " << entry.path();
  }
  // A directory that does not exist fails cleanly.
  EXPECT_FALSE(SaveTensors({first}, path_ + ".missing_dir/x.bin"));
}

TEST_F(SerializeTest, ModuleRoundTripRestoresBehaviour) {
  Rng rng_a(3);
  Linear original(4, 3, &rng_a);
  ASSERT_TRUE(SaveModule(original, path_));

  Rng rng_b(99);  // Different init.
  Linear restored(4, 3, &rng_b);
  ASSERT_TRUE(LoadModule(&restored, path_));

  Rng data_rng(5);
  const Tensor x = Tensor::Uniform(Shape({2, 4}), -1, 1, &data_rng);
  const Tensor y_original = original.Forward(x);
  const Tensor y_restored = restored.Forward(x);
  for (int64_t i = 0; i < y_original.numel(); ++i) {
    EXPECT_FLOAT_EQ(y_original.data()[i], y_restored.data()[i]);
  }
}

TEST_F(SerializeTest, ShapeMismatchLeavesModuleUntouched) {
  Rng rng(6);
  Linear small(2, 2, &rng);
  ASSERT_TRUE(SaveModule(small, path_));
  Linear big(4, 4, &rng);
  const float before = big.Parameters()[0].data()[0];
  EXPECT_FALSE(LoadModule(&big, path_));
  EXPECT_FLOAT_EQ(big.Parameters()[0].data()[0], before);
}

TEST_F(SerializeTest, GruRoundTrip) {
  Rng rng_a(7);
  Gru original(3, 5, &rng_a);
  ASSERT_TRUE(SaveModule(original, path_));
  Rng rng_b(8);
  Gru restored(3, 5, &rng_b);
  ASSERT_TRUE(LoadModule(&restored, path_));
  Rng data_rng(9);
  const Tensor seq = Tensor::Uniform(Shape({2, 6, 3}), -1, 1, &data_rng);
  const Tensor a = original.ForwardFinal(seq);
  const Tensor b = restored.ForwardFinal(seq);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

// ---- seeded fuzz -----------------------------------------------------------

// A module whose parameters are the given tensors.
struct TensorSet : Module {
  std::vector<Tensor> tensors;
  std::vector<Tensor> Parameters() const override { return tensors; }
};

// Mutated copies of a saved checkpoint, written under TempPath, load
// through LoadTensors and LoadModule. Each case fails cleanly or loads a
// container its bytes account for; none may abort or size an allocation
// from a header the file cannot back.
TEST_F(SerializeTest, FuzzedCheckpointsFailCleanlyOrLoadWhatTheFileHolds) {
  constexpr uint64_t kSeed = 0x5715;
  constexpr int kCases = 1500;
  Rng init(15);
  TensorSet saved;
  saved.tensors = {Tensor::Uniform(Shape({2, 3}), -1, 1, &init),
                   Tensor::Scalar(7.0f),
                   Tensor::Uniform(Shape({2, 2, 2}), -1, 1, &init)};
  ASSERT_TRUE(SaveModule(saved, path_));
  std::vector<uint8_t> file;
  {
    std::ifstream in(path_, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Version, count, and every tensor's ndim, dims and dtype tag.
  std::vector<Field> fields = {{8, 4}, {12, 4}};
  size_t at = 16;
  for (const Tensor& t : saved.tensors) {
    fields.push_back({at, 4});
    at += 4;
    for (int d = 0; d < t.shape().ndim(); ++d, at += 8) {
      fields.push_back({at, 8});
    }
    fields.push_back({at, 4});
    at += 4 + sizeof(float) * static_cast<size_t>(t.numel());
  }
  ASSERT_EQ(at, file.size());

  int loaded = 0;
  // Unknown dtype tags are reported on stderr; keep them out of the log.
  testing::internal::CaptureStderr();
  for (int index = 0; index < kCases; ++index) {
    SCOPED_TRACE(::testing::Message()
                 << "replay: seed " << kSeed << ", index " << index);
    Rng rng = CaseRng(kSeed, index);
    std::vector<uint8_t> bytes = file;
    Mutate(&rng, fields, &bytes);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    const std::vector<Tensor> tensors = LoadTensors(path_);
    size_t payload = 0;
    for (const Tensor& t : tensors) {
      payload += sizeof(float) * static_cast<size_t>(t.numel());
    }
    EXPECT_LE(payload, bytes.size());

    TensorSet target;
    for (const Tensor& t : saved.tensors) {
      target.tensors.push_back(Tensor::Zeros(t.shape()));
    }
    const bool restored = LoadModule(&target, path_);
    loaded += restored ? 1 : 0;
    // A refused checkpoint leaves every weight as it was; an accepted one
    // holds exactly what LoadTensors read.
    for (size_t i = 0; i < target.tensors.size(); ++i) {
      const Tensor& t = target.tensors[i];
      for (int64_t j = 0; j < t.numel(); ++j) {
        EXPECT_EQ(t.data()[j], restored ? tensors[i].data()[j] : 0.0f);
      }
    }
  }
  testing::internal::GetCapturedStderr();
  // The mutations must reach both outcomes, or the loop tests nothing.
  EXPECT_GT(loaded, kCases / 50);
  EXPECT_LT(loaded, kCases / 2);
}

}  // namespace
}  // namespace stsm
