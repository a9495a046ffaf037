// Parameter serialization: save and restore the weights of any Module.
//
// The format is a simple little-endian binary container:
//   magic "STSMTNSR", version u32, tensor count u32, then per tensor:
//   ndim u32, dims i64[ndim], dtype tag u32 (0 = fp32), data f32[numel].
// Version 1 files (no dtype tag) still load; writers emit version 2. A
// dtype tag other than 0 is a hard load failure — never an fp32
// reinterpretation of unknown bytes.
// Parameters are stored positionally, matching Module::Parameters() order,
// which is stable for every module in this library.

#ifndef STSM_NN_SERIALIZE_H_
#define STSM_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace stsm {

// Writes the tensors to `path` atomically (a temp file renamed into place).
// Returns false on I/O failure.
bool SaveTensors(const std::vector<Tensor>& tensors, const std::string& path);

// Reads tensors from `path`. Returns an empty vector on failure (missing
// file, bad magic, an unknown dtype tag, a header declaring more payload
// than the file holds, truncated data, or trailing bytes beyond the
// declared tensor payload — the file must be exactly the container).
std::vector<Tensor> LoadTensors(const std::string& path);

// Saves a module's parameters.
bool SaveModule(const Module& module, const std::string& path);

// Restores a module's parameters in place. Returns false (leaving the
// module untouched) if the file does not match the module's parameter
// shapes.
bool LoadModule(Module* module, const std::string& path);

}  // namespace stsm

#endif  // STSM_NN_SERIALIZE_H_
