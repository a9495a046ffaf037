// Wire-protocol tests: round-trips for every status tag and boundary tensor
// size, plus defensive decoding of truncated, oversized, and garbage frames
// — a hostile length field must be rejected before it can size a buffer.

#include "serve/net/wire.h"

#include <cstring>
#include <string>
#include <vector>

#include "fuzz.h"
#include "gtest/gtest.h"

namespace stsm {
namespace serve {
namespace net {
namespace {

RequestFrame MakeRequest() {
  RequestFrame frame;
  frame.id = 0x0123456789ABCDEFull;
  frame.deadline_ms = 250;
  frame.request.model = "stsm";
  frame.request.start_step = -17;
  frame.request.window = {1.0f, -2.5f, 0.0f, 3.25f};
  frame.request.regions = {0, 3, 7};
  return frame;
}

// Decodes one encoded frame back through the header + payload path.
template <typename Frame>
bool RoundTrip(const std::vector<uint8_t>& bytes, Frame* out,
               bool (*decode)(const uint8_t*, size_t, Frame*, std::string*)) {
  FrameHeader header;
  std::string error;
  if (DecodeHeader(bytes.data(), bytes.size(), &header, &error) !=
      DecodeResult::kOk) {
    return false;
  }
  if (bytes.size() != kHeaderBytes + header.payload_bytes) return false;
  return decode(bytes.data() + kHeaderBytes, header.payload_bytes, out,
                &error);
}

TEST(WireTest, RequestRoundTrip) {
  const RequestFrame frame = MakeRequest();
  std::vector<uint8_t> bytes;
  EncodeRequest(frame, &bytes);
  RequestFrame decoded;
  ASSERT_TRUE(RoundTrip(bytes, &decoded, DecodeRequestPayload));
  EXPECT_EQ(decoded.id, frame.id);
  EXPECT_EQ(decoded.deadline_ms, frame.deadline_ms);
  EXPECT_EQ(decoded.request.model, frame.request.model);
  EXPECT_EQ(decoded.request.start_step, frame.request.start_step);
  EXPECT_EQ(decoded.request.window, frame.request.window);
  EXPECT_EQ(decoded.request.regions, frame.request.regions);
  // The absolute deadline is never carried across hosts.
  EXPECT_EQ(decoded.request.deadline, Clock::time_point::max());
}

TEST(WireTest, ResponseRoundTripEveryStatusTag) {
  for (Status status :
       {Status::kOk, Status::kDegraded, Status::kRejected, Status::kError}) {
    ResponseFrame frame;
    frame.id = 42;
    frame.response.status = status;
    frame.response.message = "detail";
    frame.response.forecast = {0.5f, -1.5f};
    frame.response.horizon = 4;
    frame.response.batch_size = 3;
    frame.response.cache_hit = (status == Status::kOk);
    std::vector<uint8_t> bytes;
    EncodeResponse(frame, &bytes);
    ResponseFrame decoded;
    ASSERT_TRUE(RoundTrip(bytes, &decoded, DecodeResponsePayload));
    EXPECT_EQ(decoded.id, 42u);
    EXPECT_EQ(decoded.response.status, status);
    EXPECT_EQ(decoded.response.message, "detail");
    EXPECT_EQ(decoded.response.forecast, frame.response.forecast);
    EXPECT_EQ(decoded.response.horizon, 4);
    EXPECT_EQ(decoded.response.batch_size, 3);
    EXPECT_EQ(decoded.response.cache_hit, frame.response.cache_hit);
  }
}

TEST(WireTest, ZeroLengthTensorsRoundTrip) {
  RequestFrame request;
  request.id = 1;  // Everything else at defaults: empty model/window/regions.
  std::vector<uint8_t> request_bytes;
  EncodeRequest(request, &request_bytes);
  EXPECT_EQ(request_bytes.size(), kHeaderBytes + 26);
  RequestFrame decoded_request;
  ASSERT_TRUE(RoundTrip(request_bytes, &decoded_request,
                        DecodeRequestPayload));
  EXPECT_TRUE(decoded_request.request.model.empty());
  EXPECT_TRUE(decoded_request.request.window.empty());
  EXPECT_TRUE(decoded_request.request.regions.empty());

  ResponseFrame response;
  response.id = 2;  // Empty message and forecast (the kRejected shape).
  response.response.status = Status::kRejected;
  std::vector<uint8_t> response_bytes;
  EncodeResponse(response, &response_bytes);
  ResponseFrame decoded_response;
  ASSERT_TRUE(RoundTrip(response_bytes, &decoded_response,
                        DecodeResponsePayload));
  EXPECT_TRUE(decoded_response.response.message.empty());
  EXPECT_TRUE(decoded_response.response.forecast.empty());
}

TEST(WireTest, MaxSizePayloadRoundTrips) {
  // Largest forecast that fits the payload cap exactly: fixed response
  // fields are 24 bytes, the rest is floats.
  const size_t forecast_len = (kMaxPayloadBytes - 24) / 4;
  ResponseFrame frame;
  frame.response.status = Status::kOk;
  frame.response.forecast.assign(forecast_len, 1.25f);
  std::vector<uint8_t> bytes;
  EncodeResponse(frame, &bytes);
  FrameHeader header;
  std::string error;
  ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header, &error),
            DecodeResult::kOk);
  EXPECT_EQ(header.payload_bytes, kMaxPayloadBytes);
  ResponseFrame decoded;
  ASSERT_TRUE(RoundTrip(bytes, &decoded, DecodeResponsePayload));
  EXPECT_EQ(decoded.response.forecast.size(), forecast_len);
}

// ---- header rejection ------------------------------------------------------

std::vector<uint8_t> RawHeader(uint32_t magic, uint8_t version, uint8_t type,
                               uint16_t reserved, uint32_t payload_bytes) {
  std::vector<uint8_t> bytes(kHeaderBytes);
  std::memcpy(bytes.data(), &magic, 4);
  bytes[4] = version;
  bytes[5] = type;
  std::memcpy(bytes.data() + 6, &reserved, 2);
  std::memcpy(bytes.data() + 8, &payload_bytes, 4);
  return bytes;
}

TEST(WireTest, ShortHeaderNeedsMoreBytes) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  FrameHeader header;
  std::string error;
  for (size_t len = 0; len < kHeaderBytes; ++len) {
    EXPECT_EQ(DecodeHeader(bytes.data(), len, &header, &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireTest, HeaderRejectsGarbageAndWrongFields) {
  FrameHeader header;
  std::string error;
  const auto malformed = [&](const std::vector<uint8_t>& bytes) {
    return DecodeHeader(bytes.data(), bytes.size(), &header, &error) ==
           DecodeResult::kMalformed;
  };
  EXPECT_TRUE(malformed(RawHeader(0xDEADBEEF, kWireVersion, 1, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion + 1, 1, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 0, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 3, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 1, 7, 0)));
  // An oversized length field is rejected at the header, before any
  // allocation could be sized from it.
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 1, 0,
                                  static_cast<uint32_t>(kMaxPayloadBytes) +
                                      1)));
  // All-garbage bytes fail on the magic.
  std::vector<uint8_t> garbage(kHeaderBytes, 0xA5);
  EXPECT_TRUE(malformed(garbage));
}

// ---- payload rejection -----------------------------------------------------

TEST(WireTest, TruncatedRequestPayloadRejected) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  const size_t payload_size = bytes.size() - kHeaderBytes;
  RequestFrame decoded;
  std::string error;
  for (size_t len = 0; len < payload_size; ++len) {
    EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes, len,
                                      &decoded, &error))
        << "truncated to " << len << " bytes";
  }
}

TEST(WireTest, TrailingBytesAfterRequestRejected) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  bytes.push_back(0);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes,
                                    bytes.size() - kHeaderBytes, &decoded,
                                    &error));
}

TEST(WireTest, HostileCountsRejectedWithoutAllocation) {
  // A tiny payload claiming 4 billion window floats: the count must be
  // checked against the actual bytes before any vector is sized.
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  const size_t window_len_at = kHeaderBytes + 8 + 4 + 4 + 2;
  const uint32_t hostile = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + window_len_at, &hostile, 4);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes,
                                    bytes.size() - kHeaderBytes, &decoded,
                                    &error));
  EXPECT_TRUE(decoded.request.window.empty());

  // Same through the region count.
  std::vector<uint8_t> bytes2;
  EncodeRequest(MakeRequest(), &bytes2);
  std::memcpy(bytes2.data() + window_len_at + 4, &hostile, 4);
  EXPECT_FALSE(DecodeRequestPayload(bytes2.data() + kHeaderBytes,
                                    bytes2.size() - kHeaderBytes, &decoded,
                                    &error));
}

TEST(WireTest, OverlongModelNameRejected) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  const size_t model_len_at = kHeaderBytes + 8 + 4 + 4;
  const uint16_t overlong = kMaxModelNameBytes + 1;
  std::memcpy(bytes.data() + model_len_at, &overlong, 2);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes,
                                    bytes.size() - kHeaderBytes, &decoded,
                                    &error));
  EXPECT_EQ(error, "model name too long");
}

TEST(WireTest, UnknownStatusTagRejected) {
  ResponseFrame frame;
  frame.response.status = Status::kOk;
  std::vector<uint8_t> bytes;
  EncodeResponse(frame, &bytes);
  bytes[kHeaderBytes + 8] = 9;  // Status byte past every known tag.
  ResponseFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeResponsePayload(bytes.data() + kHeaderBytes,
                                     bytes.size() - kHeaderBytes, &decoded,
                                     &error));
  EXPECT_EQ(error, "unknown status tag");
}

TEST(WireTest, TruncatedResponsePayloadRejected) {
  ResponseFrame frame;
  frame.response.status = Status::kDegraded;
  frame.response.message = "deadline missed";
  frame.response.forecast = {1.0f, 2.0f, 3.0f};
  std::vector<uint8_t> bytes;
  EncodeResponse(frame, &bytes);
  const size_t payload_size = bytes.size() - kHeaderBytes;
  ResponseFrame decoded;
  std::string error;
  for (size_t len = 0; len < payload_size; ++len) {
    EXPECT_FALSE(DecodeResponsePayload(bytes.data() + kHeaderBytes, len,
                                       &decoded, &error))
        << "truncated to " << len << " bytes";
  }
}

// ---- seeded fuzz -----------------------------------------------------------

// Mutated copies of valid request frames go through the ingress decode path
// (DecodeHeader, then DecodeRequestPayload over exactly the declared
// payload, frame after frame, as Connection parses them).
TEST(WireFuzzTest, MutatedRequestFramesDecodeOrFailCleanly) {
  constexpr uint64_t kSeed = 0x5715;
  constexpr int kCases = 4000;
  // Payload length, model name length, window length, region count.
  const std::vector<Field> fields = {
      {8, 4}, {kHeaderBytes + 16, 2}, {kHeaderBytes + 18, 4},
      {kHeaderBytes + 22, 4}};
  int decoded = 0;
  int malformed = 0;
  for (int index = 0; index < kCases; ++index) {
    SCOPED_TRACE(::testing::Message()
                 << "replay: seed " << kSeed << ", index " << index);
    Rng rng = CaseRng(kSeed, index);
    // Only the counts shape the decoder's path, so the frames differ in
    // those.
    RequestFrame valid = MakeRequest();
    valid.request.model.assign(static_cast<size_t>(rng.UniformInt(17)), 'm');
    valid.request.window.assign(static_cast<size_t>(rng.UniformInt(33)), 1.5f);
    valid.request.regions.assign(static_cast<size_t>(rng.UniformInt(9)), 3);
    std::vector<uint8_t> bytes;
    EncodeRequest(valid, &bytes);
    Mutate(&rng, fields, &bytes);

    // Stop at the first malformed frame (the connection closes) or at an
    // incomplete one (the ingress waits for more bytes).
    for (size_t at = 0; at < bytes.size();) {
      const uint8_t* data = bytes.data() + at;
      const size_t available = bytes.size() - at;
      FrameHeader header;
      std::string error;
      const DecodeResult head = DecodeHeader(data, available, &header, &error);
      if (head == DecodeResult::kNeedMore) {
        EXPECT_LT(available, kHeaderBytes);
        break;
      }
      if (head == DecodeResult::kMalformed ||
          header.type != FrameType::kRequest) {
        ++malformed;
        break;
      }
      if (available - kHeaderBytes < header.payload_bytes) break;
      RequestFrame frame;
      if (!DecodeRequestPayload(data + kHeaderBytes, header.payload_bytes,
                                &frame, &error)) {
        EXPECT_FALSE(error.empty());
        ++malformed;
        break;
      }
      // A frame that decodes is exactly what the encoder writes for the
      // decoded request, so no count outgrew the bytes it came in.
      std::vector<uint8_t> again;
      EncodeRequest(frame, &again);
      ASSERT_EQ(again.size(), kHeaderBytes + header.payload_bytes);
      EXPECT_EQ(std::memcmp(again.data(), data, again.size()), 0);
      ++decoded;
      at += again.size();
    }
  }
  // The mutations must reach both outcomes, or the loop tests nothing.
  EXPECT_GT(decoded, kCases / 20);
  EXPECT_GT(malformed, kCases / 4);
}

// Mutated copies of valid response frames go through the client's decode
// path (DecodeHeader, a kResponse type check, then DecodeResponsePayload over
// exactly the declared payload), as NetClient runs it on bytes from the
// server.
TEST(WireFuzzTest, MutatedResponseFramesDecodeOrFailCleanly) {
  constexpr uint64_t kSeed = 0x7e5b;
  constexpr int kCases = 4000;
  // Payload length, status tag, message length, horizon, batch size,
  // forecast length.
  constexpr size_t kStatusAt = kHeaderBytes + 8;
  const std::vector<Field> fields = {
      {8, 4},
      {kStatusAt, 1},
      {kHeaderBytes + 10, 2},
      {kHeaderBytes + 12, 4},
      {kHeaderBytes + 16, 4},
      {kHeaderBytes + 20, 4}};
  int decoded = 0;
  int malformed = 0;
  for (int index = 0; index < kCases; ++index) {
    SCOPED_TRACE(::testing::Message()
                 << "replay: seed " << kSeed << ", index " << index);
    Rng rng = CaseRng(kSeed, index);
    ResponseFrame valid;
    valid.id = rng.NextU64();
    valid.response.status = static_cast<Status>(rng.UniformInt(4));
    valid.response.cache_hit = rng.UniformInt(2) == 1;
    valid.response.message.assign(static_cast<size_t>(rng.UniformInt(17)),
                                  'e');
    valid.response.horizon = rng.UniformInt(13);
    valid.response.batch_size = 1 + rng.UniformInt(8);
    valid.response.forecast.assign(static_cast<size_t>(rng.UniformInt(33)),
                                   -0.25f);
    std::vector<uint8_t> bytes;
    EncodeResponse(valid, &bytes);
    Mutate(&rng, fields, &bytes);

    // Stop at the first malformed frame (the client fails the call) or at
    // an incomplete one (the client reads more).
    for (size_t at = 0; at < bytes.size();) {
      const uint8_t* data = bytes.data() + at;
      const size_t available = bytes.size() - at;
      FrameHeader header;
      std::string error;
      const DecodeResult head = DecodeHeader(data, available, &header, &error);
      if (head == DecodeResult::kNeedMore) {
        EXPECT_LT(available, kHeaderBytes);
        break;
      }
      if (head == DecodeResult::kMalformed ||
          header.type != FrameType::kResponse) {
        ++malformed;
        break;
      }
      if (available - kHeaderBytes < header.payload_bytes) break;
      ResponseFrame frame;
      if (!DecodeResponsePayload(data + kHeaderBytes, header.payload_bytes,
                                 &frame, &error)) {
        EXPECT_FALSE(error.empty());
        ++malformed;
        break;
      }
      EXPECT_LE(static_cast<uint8_t>(frame.response.status),
                static_cast<uint8_t>(Status::kError));
      // A frame that decodes re-encodes to its own bytes, so no count
      // outgrew the bytes it came in. The one exception is the flags byte:
      // the decoder keeps only its cache-hit bit.
      std::vector<uint8_t> again;
      EncodeResponse(frame, &again);
      ASSERT_EQ(again.size(), kHeaderBytes + header.payload_bytes);
      std::vector<uint8_t> expected(data, data + again.size());
      expected[kStatusAt + 1] &= 1;
      EXPECT_EQ(again, expected);
      ++decoded;
      at += again.size();
    }
  }
  // The mutations must reach both outcomes, or the loop tests nothing.
  EXPECT_GT(decoded, kCases / 20);
  EXPECT_GT(malformed, kCases / 4);
}

}  // namespace
}  // namespace net
}  // namespace serve
}  // namespace stsm
