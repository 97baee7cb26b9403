// Sequential network container plus a batched runner that amortizes the
// simulated GPU's launch overhead across a batch — mirroring how real
// inference engines batch frames (paper §7.4.2).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace deeplens {
namespace nn {

/// \brief A straight-line stack of layers.
class Network {
 public:
  explicit Network(std::string name) : name_(std::move(name)) {}

  /// Appends a layer; returns a borrowed pointer for weight surgery.
  template <typename L, typename... Args>
  L* Add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* ptr = layer.get();
    layers_.push_back(std::move(layer));
    return ptr;
  }

  /// Runs the stack on one input.
  Result<Tensor> Forward(const Tensor& input, Device* device) const;

  const std::string& name() const { return name_; }
  size_t num_layers() const { return layers_.size(); }
  int64_t num_params() const;
  std::string Summary() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// The one batched-inference path every model entry point shares: runs
/// item(i, math) for i in [0, n) as a single device->ParallelMap, so the
/// items fan out over the morsel pool and the GPU backend charges one
/// launch plus `transfer_bytes` of copy. `math` is the device the
/// per-item kernels run on: `device` itself, or kCpuVector when `device`
/// is the simulated GPU (its per-item math runs host-vectorized). Each
/// item has its own Status slot; the lowest-index failure is returned.
Status MapBatch(Device* device, size_t n, size_t transfer_bytes,
                const std::function<Status(size_t, Device*)>& item);

/// Runs `net` over a batch of inputs through MapBatch: item i's output
/// equals net.Forward(inputs[i]) on the per-item math device.
Result<std::vector<Tensor>> ForwardBatch(const Network& net,
                                         const std::vector<Tensor>& inputs,
                                         Device* device);

}  // namespace nn
}  // namespace deeplens
