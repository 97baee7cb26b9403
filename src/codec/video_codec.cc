#include "codec/video_codec.h"

#include <cstring>

namespace deeplens {
namespace codec {

namespace {
constexpr uint32_t kDlv1Magic = 0xD1F00D01;
constexpr uint8_t kIFrame = 0;
constexpr uint8_t kPFrame = 1;
}  // namespace

VideoEncoder::VideoEncoder(VideoCodecOptions options) : options_(options) {
  if (options_.gop_size < 1) options_.gop_size = 1;
}

Status VideoEncoder::AddFrame(const Image& frame) {
  if (frame.empty()) {
    return Status::InvalidArgument("cannot encode an empty frame");
  }
  if (num_frames_ == 0) {
    width_ = frame.width();
    height_ = frame.height();
    channels_ = frame.channels();
  } else if (frame.width() != width_ || frame.height() != height_ ||
             frame.channels() != channels_) {
    return Status::InvalidArgument(
        "all frames in a DLV1 stream must share dimensions");
  }

  const bool intra =
      (num_frames_ % options_.gop_size == 0) || prev_reconstructed_.empty();
  ByteBuffer frame_buf;
  frame_buf.PutU8(intra ? kIFrame : kPFrame);
  // The decoder predicts P-frames from *reconstructed* pixels, so the
  // encoder tracks the same reconstruction to avoid drift.
  Image reconstructed;
  EncodeBlocksInto(frame, intra ? nullptr : &prev_reconstructed_,
                   options_.quality, &frame_buf, &reconstructed);
  prev_reconstructed_ = std::move(reconstructed);
  body_.PutVarint(frame_buf.size());
  body_.PutBytes(frame_buf.data().data(), frame_buf.size());
  ++num_frames_;
  return Status::OK();
}

std::vector<uint8_t> VideoEncoder::Finish() {
  ByteBuffer out;
  out.PutU32(kDlv1Magic);
  out.PutU32(static_cast<uint32_t>(width_));
  out.PutU32(static_cast<uint32_t>(height_));
  out.PutU8(static_cast<uint8_t>(channels_));
  out.PutU8(static_cast<uint8_t>(options_.quality));
  out.PutU32(static_cast<uint32_t>(options_.gop_size));
  out.PutU32(static_cast<uint32_t>(num_frames_));
  out.PutBytes(body_.data().data(), body_.size());
  return out.Release();
}

VideoDecoder::VideoDecoder(Slice stream)
    : stream_(stream), reader_(stream) {}

Status VideoDecoder::Init() {
  DL_ASSIGN_OR_RETURN(uint32_t magic, reader_.GetU32());
  if (magic != kDlv1Magic) return Status::Corruption("not a DLV1 stream");
  DL_ASSIGN_OR_RETURN(uint32_t w, reader_.GetU32());
  DL_ASSIGN_OR_RETURN(uint32_t h, reader_.GetU32());
  DL_ASSIGN_OR_RETURN(uint8_t c, reader_.GetU8());
  DL_ASSIGN_OR_RETURN(uint8_t q, reader_.GetU8());
  if (q > 2) return Status::Corruption("bad quality byte");
  DL_ASSIGN_OR_RETURN(uint32_t gop, reader_.GetU32());
  DL_ASSIGN_OR_RETURN(uint32_t nframes, reader_.GetU32());
  // Header fields are untrusted bytes: bound them before anything is
  // sized off them. Each frame record carries at least a 4-byte length
  // prefix and a kind byte, so a genuine stream can't claim more frames
  // than remaining/5 — this also bounds DecodeVideo's reserve().
  DL_RETURN_NOT_OK(ValidateDecodedImageHeader(w, h, c));
  if (gop < 1) return Status::Corruption("bad DLV1 GOP size");
  if (nframes > reader_.remaining() / 5) {
    return Status::Corruption("DLV1 stream shorter than its frame count");
  }
  width_ = static_cast<int>(w);
  height_ = static_cast<int>(h);
  channels_ = static_cast<int>(c);
  options_.quality = static_cast<Quality>(q);
  options_.gop_size = static_cast<int>(gop);
  num_frames_ = static_cast<int>(nframes);
  initialized_ = true;
  return Status::OK();
}

Result<Image> VideoDecoder::NextFrame() {
  if (!initialized_) {
    return Status::Internal("VideoDecoder::Init() not called");
  }
  if (next_frame_ >= num_frames_) {
    return Status::OutOfRange("end of DLV1 stream");
  }
  DL_ASSIGN_OR_RETURN(Slice frame_bytes, reader_.GetLengthPrefixed());
  ByteReader fr(frame_bytes);
  DL_ASSIGN_OR_RETURN(uint8_t kind, fr.GetU8());
  if (kind != kIFrame && kind != kPFrame) {
    return Status::Corruption("unknown frame kind");
  }
  if (kind == kPFrame && prev_.empty()) {
    return Status::Corruption("P-frame with no reference frame");
  }
  DL_ASSIGN_OR_RETURN(
      Image img, DecodeBlocks(&fr, kind == kPFrame ? &prev_ : nullptr, width_,
                              height_, channels_, options_.quality));
  prev_ = img;
  ++next_frame_;
  return img;
}

Result<Image> VideoDecoder::SeekDecode(int target) {
  if (target < next_frame_) {
    return Status::InvalidArgument(
        "DLV1 streams decode forward only; re-open to rewind");
  }
  Image img;
  while (next_frame_ <= target) {
    DL_ASSIGN_OR_RETURN(img, NextFrame());
  }
  return img;
}

Result<std::vector<uint8_t>> EncodeVideo(const std::vector<Image>& frames,
                                         VideoCodecOptions options) {
  VideoEncoder enc(options);
  for (const Image& f : frames) {
    DL_RETURN_NOT_OK(enc.AddFrame(f));
  }
  return enc.Finish();
}

Result<std::vector<Image>> DecodeVideo(const Slice& stream) {
  VideoDecoder dec(stream);
  DL_RETURN_NOT_OK(dec.Init());
  std::vector<Image> frames;
  frames.reserve(static_cast<size_t>(dec.num_frames()));
  for (int i = 0; i < dec.num_frames(); ++i) {
    DL_ASSIGN_OR_RETURN(Image f, dec.NextFrame());
    frames.push_back(std::move(f));
  }
  return frames;
}

}  // namespace codec
}  // namespace deeplens
