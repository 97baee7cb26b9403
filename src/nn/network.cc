#include "nn/network.h"

#include "common/string_util.h"

namespace deeplens {
namespace nn {

Result<Tensor> Network::Forward(const Tensor& input, Device* device) const {
  Tensor cur = input;
  for (const auto& layer : layers_) {
    DL_ASSIGN_OR_RETURN(cur, layer->Forward(cur, device));
  }
  return cur;
}

int64_t Network::num_params() const {
  int64_t n = 0;
  for (const auto& layer : layers_) n += layer->num_params();
  return n;
}

std::string Network::Summary() const {
  std::string out = name_ + " (" + std::to_string(num_params()) + " params)";
  for (const auto& layer : layers_) {
    out += "\n  " + layer->name();
  }
  return out;
}

Status MapBatch(Device* device, size_t n, size_t transfer_bytes,
                const std::function<Status(size_t, Device*)>& item) {
  if (n == 0) return Status::OK();
  Device* math = device->kind() == DeviceKind::kGpuSim
                     ? GetDevice(DeviceKind::kCpuVector)
                     : device;
  std::vector<Status> status(n);
  device->ParallelMap(
      n, [&](size_t i) { status[i] = item(i, math); }, transfer_bytes);
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Result<std::vector<Tensor>> ForwardBatch(const Network& net,
                                         const std::vector<Tensor>& inputs,
                                         Device* device) {
  size_t transfer_bytes = 0;
  for (const Tensor& t : inputs) {
    transfer_bytes += static_cast<size_t>(t.size()) * sizeof(float);
  }
  std::vector<Tensor> outputs(inputs.size());
  DL_RETURN_NOT_OK(MapBatch(device, inputs.size(), transfer_bytes,
                            [&](size_t i, Device* math) -> Status {
                              DL_ASSIGN_OR_RETURN(
                                  outputs[i], net.Forward(inputs[i], math));
                              return Status::OK();
                            }));
  return outputs;
}

}  // namespace nn
}  // namespace deeplens
