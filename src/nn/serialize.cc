#include "nn/serialize.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "common/check.h"

namespace stsm {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'S', 'M', 'T', 'N', 'S', 'R'};
// v1: per tensor {ndim u32, dims i64[ndim], data f32[numel]}.
// v2: adds an element-type tag u32 between dims and data. Tag 0 (fp32) is
//     the only one this reader accepts; tag 1 was bf16, whose support was
//     removed, and it is rejected like any other unknown tag.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kTagF32 = 0;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

bool SaveTensors(const std::vector<Tensor>& tensors, const std::string& path) {
  // Write a private temp file and rename it over `path`: a concurrent
  // LoadTensors (a hot-swap) sees either the old file or the new one, never
  // a half-written one. The sequence number keeps two threads saving to the
  // same path apart.
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return false;
    out.write(kMagic, sizeof(kMagic));
    WritePod(out, kVersion);
    WritePod(out, static_cast<uint32_t>(tensors.size()));
    for (const Tensor& t : tensors) {
      STSM_CHECK(t.defined());
      // The on-disk layout is flat row-major; compact strided views first
      // (Clone gathers through the view's strides into a contiguous buffer).
      const Tensor tensor = t.is_contiguous() ? t : t.Clone();
      const auto& dims = tensor.shape().dims();
      WritePod(out, static_cast<uint32_t>(dims.size()));
      for (int64_t d : dims) WritePod(out, d);
      WritePod(out, kTagF32);
      out.write(reinterpret_cast<const char*>(tensor.data()),
                static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
    }
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::vector<Tensor> LoadTensors(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  const int64_t file_bytes = static_cast<int64_t>(in.tellg());
  in.seekg(0);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return {};
  uint32_t version = 0, count = 0;
  if (!ReadPod(in, &version)) return {};
  if (version != 1 && version != kVersion) return {};
  if (!ReadPod(in, &count)) return {};

  std::vector<Tensor> tensors;
  for (uint32_t t = 0; t < count; ++t) {
    uint32_t ndim = 0;
    if (!ReadPod(in, &ndim) || ndim > 16) return {};
    std::vector<int64_t> dims(ndim);
    // The product of the nonzero dims bounds every partial product Shape
    // computes (numel, strides), so a zero dim cannot hide an overflowing
    // one: dims {0, 2^62, 2^62} hold nothing, yet their strides overflow.
    int64_t extent = 1;
    bool empty = false;
    for (uint32_t d = 0; d < ndim; ++d) {
      if (!ReadPod(in, &dims[d]) || dims[d] < 0) return {};
      if (dims[d] == 0) {
        empty = true;
      } else if (__builtin_mul_overflow(extent, dims[d], &extent)) {
        return {};
      }
    }
    const int64_t numel = empty ? 0 : extent;
    // v1 predates the tag and is fp32 by definition. A tag this reader does
    // not know is a hard error, not an fp32 reinterpretation: guessing the
    // element size would silently load garbage weights.
    if (version >= 2) {
      uint32_t tag = 0;
      if (!ReadPod(in, &tag)) return {};
      if (tag != kTagF32) {
        std::cerr << "LoadTensors(" << path << "): unknown dtype tag " << tag
                  << " for tensor " << t
                  << "; this checkpoint needs a newer reader\n";
        return {};
      }
    }
    // The header sizes the allocation, so it must not promise more payload
    // than the file holds: a hostile dims={1<<40} would otherwise allocate
    // (or abort) before the short read is noticed.
    const int64_t bytes_left = file_bytes - static_cast<int64_t>(in.tellg());
    if (numel > bytes_left / static_cast<int64_t>(sizeof(float))) return {};
    const Shape shape(dims);
    auto impl = std::make_shared<TensorImpl>();
    impl->shape = shape;
    impl->strides = shape.Strides();
    impl->storage = Storage::New(numel, /*zero=*/false);
    in.read(reinterpret_cast<char*>(impl->storage->data()),
            static_cast<std::streamsize>(numel * sizeof(float)));
    if (!in) return {};
    tensors.push_back(Tensor(std::move(impl)));
  }
  // The declared tensor payload must account for the whole file: trailing
  // bytes mean a corrupted or mis-declared checkpoint, and silently
  // accepting one would let a truncated count load "successfully".
  if (in.peek() != std::ifstream::traits_type::eof()) return {};
  return tensors;
}

bool SaveModule(const Module& module, const std::string& path) {
  return SaveTensors(module.Parameters(), path);
}

bool LoadModule(Module* module, const std::string& path) {
  STSM_CHECK(module != nullptr);
  const std::vector<Tensor> loaded = LoadTensors(path);
  std::vector<Tensor> parameters = module->Parameters();
  if (loaded.size() != parameters.size()) return false;
  for (size_t i = 0; i < loaded.size(); ++i) {
    if (loaded[i].shape() != parameters[i].shape()) return false;
  }
  for (size_t i = 0; i < loaded.size(); ++i) {
    std::memcpy(parameters[i].data(), loaded[i].data(),
                static_cast<size_t>(loaded[i].numel()) * sizeof(float));
  }
  return true;
}

}  // namespace stsm
