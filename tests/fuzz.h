// Seeded byte mutation for the decoder fuzz loops (wire frames,
// checkpoints). A case is a pure function of (seed, index), so a failing
// case replays on its own from the pair its test prints; under ASan/UBSan an
// out-of-bounds read or an allocation sized by a hostile count fails it.

#ifndef STSM_TESTS_FUZZ_H_
#define STSM_TESTS_FUZZ_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace stsm {

inline Rng CaseRng(uint64_t seed, int index) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index));
}

// A length or count field of an encoding: byte offset and width (<= 8).
struct Field {
  size_t at;
  size_t width;
};

// Applies one to three mutations to `bytes`: flip the bits of one byte,
// truncate, append junk, or overwrite one of `fields` (little-endian) with
// a hostile value.
inline void Mutate(Rng* rng, const std::vector<Field>& fields,
                   std::vector<uint8_t>* bytes) {
  const int mutations = 1 + rng->UniformInt(3);
  for (int m = 0; m < mutations && !bytes->empty(); ++m) {
    const int size = static_cast<int>(bytes->size());
    switch (rng->UniformInt(4)) {
      case 0:
        (*bytes)[rng->UniformInt(size)] ^=
            static_cast<uint8_t>(1 + rng->UniformInt(255));
        break;
      case 1:
        bytes->resize(static_cast<size_t>(rng->UniformInt(size)));
        break;
      case 2:
        for (int i = 1 + rng->UniformInt(8); i > 0; --i) {
          bytes->push_back(static_cast<uint8_t>(rng->UniformInt(256)));
        }
        break;
      default: {
        const Field field =
            fields[rng->UniformInt(static_cast<int>(fields.size()))];
        // 2^24 bytes is the wire's payload cap.
        const uint64_t values[] = {0, 1, 17, static_cast<uint64_t>(size),
                                   uint64_t{1} << 24, (uint64_t{1} << 24) + 1,
                                   uint64_t{1} << 31, uint64_t{1} << 62,
                                   ~uint64_t{0}, rng->NextU64()};
        const uint64_t value = values[rng->UniformInt(10)];
        if (field.at + field.width <= bytes->size()) {
          std::memcpy(bytes->data() + field.at, &value, field.width);
        }
        break;
      }
    }
  }
}

}  // namespace stsm

#endif  // STSM_TESTS_FUZZ_H_
