// Unit tests: binary trace serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::cpu {
namespace {

Trace sample_trace() {
  return {make_exec(7), make_load(0x1000, 8), make_store(0x2000, 32),
          make_prefetch(0x3000), make_exec(1000000)};
}

TEST(TraceIo, StorePayloadsSurviveRoundTrip) {
  // The v2 format carries the store payload the data-content shadow checks.
  std::stringstream ss;
  Trace original = {make_store(0x100, 8, 0xDEADBEEFCAFEF00DULL),
                    make_store(0x200, 16, 0x0123456789ABCDEFULL),
                    make_load(0x100, 8)};
  write_trace(ss, original);
  const Trace restored = read_trace(ss);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored[0].value, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(restored[1].value, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(restored == original);
}

TEST(TraceIo, AssignStoreValuesIsDeterministicAndNonzero) {
  Trace a = sample_trace();
  Trace b = sample_trace();
  assign_store_values(a, 42);
  assign_store_values(b, 42);
  EXPECT_TRUE(a == b);
  for (const TraceOp& op : a) {
    if (op.kind == OpKind::kStore) {
      EXPECT_NE(op.value, 0u);
    } else {
      EXPECT_EQ(op.value, 0u);
    }
  }
  Trace c = sample_trace();
  assign_store_values(c, 43);  // a different seed gives different payloads
  EXPECT_FALSE(a == c);
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  std::stringstream ss;
  const Trace original = sample_trace();
  write_trace(ss, original);
  const Trace restored = read_trace(ss);
  ASSERT_EQ(restored.size(), original.size());
  EXPECT_TRUE(restored == original);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace(ss, {});
  EXPECT_TRUE(read_trace(ss).empty());
}

TEST(TraceIo, KernelTraceRoundTrips) {
  std::stringstream ss;
  const Trace original = workloads::emit(workloads::CodegenOptions::all(),
                                         workloads::gemm_into, 8, 8, 8);
  write_trace(ss, original);
  EXPECT_TRUE(read_trace(ss) == original);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "this is not a trace file at all...";
  EXPECT_THROW(read_trace(ss), TraceIoError);
}

TEST(TraceIo, RejectsTruncatedStream) {
  std::stringstream ss;
  write_trace(ss, sample_trace());
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() - 5));
  EXPECT_THROW(read_trace(cut), TraceIoError);
}

TEST(TraceIo, RejectsOversizedOpCount) {
  // A bare 20-byte header claiming 2^50 ops: the reader must report a
  // truncated stream, not try to allocate the claimed ops first.
  std::stringstream ss;
  write_trace(ss, {});
  std::string bytes = ss.str();
  ASSERT_EQ(bytes.size(), 20u);
  const std::uint64_t huge = std::uint64_t{1} << 50;
  std::memcpy(bytes.data() + 8 + 4, &huge, sizeof huge);
  std::stringstream corrupt(bytes);
  EXPECT_THROW(read_trace(corrupt), TraceIoError);
}

TEST(TraceIo, RejectsBadOpKind) {
  std::stringstream ss;
  write_trace(ss, {make_exec(1)});
  std::string bytes = ss.str();
  bytes[8 + 4 + 8] = 42;  // corrupt the first op's kind field
  std::stringstream corrupt(bytes);
  EXPECT_THROW(read_trace(corrupt), TraceIoError);
}

TEST(TraceIo, RejectsZeroSizeMemoryOp) {
  std::stringstream ss;
  write_trace(ss, {make_load(0x100, 8)});
  std::string bytes = ss.str();
  bytes[8 + 4 + 8 + 1] = 0;  // zero the size field
  std::stringstream corrupt(bytes);
  EXPECT_THROW(read_trace(corrupt), TraceIoError);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sttsim_io_test.trc";
  const Trace original = sample_trace();
  write_trace_file(path, original);
  EXPECT_TRUE(read_trace_file(path) == original);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/dir/x.trc"), TraceIoError);
  EXPECT_THROW(write_trace_file("/nonexistent/dir/x.trc", {}), TraceIoError);
}

}  // namespace
}  // namespace sttsim::cpu
